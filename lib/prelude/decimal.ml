let small = Array.init 1024 string_of_int

let of_int n =
  if n >= 0 && n < Array.length small then Array.unsafe_get small n
  else string_of_int n
