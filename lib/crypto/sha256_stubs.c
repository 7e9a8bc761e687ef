/* SHA-256 (FIPS 180-4) and HMAC-SHA-256 (RFC 2104) for Sha256.

   Portable C99: words are loaded and stored byte by byte in big-endian
   order, so the result is the same on any host; there are no intrinsics,
   no CPU dispatch and no mutable global state. Every entry point hashes
   into buffers on its own C stack and allocates only its result, so it is
   safe to call from any number of domains and threads at once.

   An HMAC key is a 64-byte string: the inner midstate (the state after
   compressing the key xor ipad block) then the outer one (key xor opad),
   each as eight big-endian words. */

#include <stddef.h>
#include <stdint.h>
#include <string.h>

#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

static const uint32_t K[64] = {
  0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
  0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
  0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
  0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
  0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
  0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
  0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
  0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
  0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
  0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
  0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2
};

static const uint32_t IV[8] = {
  0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
  0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19
};

#define ROTR(x, n) (((x) >> (n)) | ((x) << (32 - (n))))

static uint32_t load_be(const unsigned char *p)
{
  return ((uint32_t)p[0] << 24) | ((uint32_t)p[1] << 16)
         | ((uint32_t)p[2] << 8) | (uint32_t)p[3];
}

static void store_be(unsigned char *p, uint32_t x)
{
  p[0] = (unsigned char)(x >> 24);
  p[1] = (unsigned char)(x >> 16);
  p[2] = (unsigned char)(x >> 8);
  p[3] = (unsigned char)x;
}

/* One round; the caller rotates the roles of a..h instead of moving the
   values, eight rounds at a time. */
#define ROUND(a, b, c, d, e, f, g, h, i)                                   \
  do {                                                                     \
    uint32_t t1 = h + (ROTR(e, 6) ^ ROTR(e, 11) ^ ROTR(e, 25))             \
                  + ((e & f) ^ (~e & g)) + K[i] + w[i];                    \
    uint32_t t2 = (ROTR(a, 2) ^ ROTR(a, 13) ^ ROTR(a, 22))                 \
                  + ((a & b) ^ (a & c) ^ (b & c));                         \
    d += t1;                                                               \
    h = t1 + t2;                                                           \
  } while (0)

/* Fold the 64-byte block [p] into the state [s]. */
static void compress(uint32_t s[8], const unsigned char *p)
{
  uint32_t w[64];
  uint32_t a = s[0], b = s[1], c = s[2], d = s[3];
  uint32_t e = s[4], f = s[5], g = s[6], h = s[7];
  int i;
  for (i = 0; i < 16; i++) w[i] = load_be(p + 4 * i);
  for (i = 16; i < 64; i++) {
    uint32_t x = w[i - 15], y = w[i - 2];
    w[i] = w[i - 16] + (ROTR(x, 7) ^ ROTR(x, 18) ^ (x >> 3)) + w[i - 7]
           + (ROTR(y, 17) ^ ROTR(y, 19) ^ (y >> 10));
  }
  for (i = 0; i < 64; i += 8) {
    ROUND(a, b, c, d, e, f, g, h, i);
    ROUND(h, a, b, c, d, e, f, g, i + 1);
    ROUND(g, h, a, b, c, d, e, f, i + 2);
    ROUND(f, g, h, a, b, c, d, e, i + 3);
    ROUND(e, f, g, h, a, b, c, d, i + 4);
    ROUND(d, e, f, g, h, a, b, c, i + 5);
    ROUND(c, d, e, f, g, h, a, b, i + 6);
    ROUND(b, c, d, e, f, g, h, a, i + 7);
  }
  s[0] += a; s[1] += b; s[2] += c; s[3] += d;
  s[4] += e; s[5] += f; s[6] += g; s[7] += h;
}

/* Hash [len] bytes of [msg] from the state [s], which has already absorbed
   [prefix] bytes (a multiple of 64: the length padding covers prefix and
   message), and write the digest to [out]. Full blocks are read in place;
   only the padded tail is copied. */
static void digest_from(uint32_t s[8], uint64_t prefix,
                        const unsigned char *msg, size_t len,
                        unsigned char out[32])
{
  unsigned char tail[128];
  size_t full = len / 64, rem = len % 64, tail_len, i;
  uint64_t bits = (prefix + len) * 8;
  for (i = 0; i < full; i++) compress(s, msg + 64 * i);
  tail_len = rem + 9 <= 64 ? 64 : 128;
  memcpy(tail, msg + 64 * full, rem);
  tail[rem] = 0x80;
  memset(tail + rem + 1, 0, tail_len - rem - 9);
  for (i = 0; i < 8; i++)
    tail[tail_len - 1 - i] = (unsigned char)(bits >> (8 * i));
  compress(s, tail);
  if (tail_len == 128) compress(s, tail + 64);
  for (i = 0; i < 8; i++) store_be(out + 4 * i, s[i]);
}

static void load_state(uint32_t s[8], const unsigned char *p)
{
  int i;
  for (i = 0; i < 8; i++) s[i] = load_be(p + 4 * i);
}

static value alloc_bytes(const unsigned char *p, mlsize_t len)
{
  value r = caml_alloc_string(len);
  memcpy(Bytes_val(r), p, len);
  return r;
}

/* Sha256.digest : string -> t */
value mewc_sha256_digest(value msg)
{
  CAMLparam1(msg);
  uint32_t s[8];
  unsigned char out[32];
  memcpy(s, IV, sizeof s);
  digest_from(s, 0, (const unsigned char *)String_val(msg),
              caml_string_length(msg), out);
  CAMLreturn(alloc_bytes(out, 32));
}

/* Sha256.hmac_key : string -> key. Keys longer than a block are hashed
   first (RFC 2104). */
value mewc_sha256_hmac_key(value key)
{
  CAMLparam1(key);
  unsigned char block[64], pad[64], out[64];
  uint32_t s[8];
  size_t len = caml_string_length(key), i;
  memset(block, 0, sizeof block);
  if (len > 64) {
    memcpy(s, IV, sizeof s);
    digest_from(s, 0, (const unsigned char *)String_val(key), len, block);
  } else {
    memcpy(block, String_val(key), len);
  }
  for (i = 0; i < 64; i++) pad[i] = block[i] ^ 0x36;
  memcpy(s, IV, sizeof s);
  compress(s, pad);
  for (i = 0; i < 8; i++) store_be(out + 4 * i, s[i]);
  for (i = 0; i < 64; i++) pad[i] = block[i] ^ 0x5c;
  memcpy(s, IV, sizeof s);
  compress(s, pad);
  for (i = 0; i < 8; i++) store_be(out + 32 + 4 * i, s[i]);
  CAMLreturn(alloc_bytes(out, 64));
}

/* Sha256.hmac_with : key -> string -> t. The inner digest stays on the C
   stack and feeds the outer one. */
value mewc_sha256_hmac_with(value key, value msg)
{
  CAMLparam2(key, msg);
  const unsigned char *k = (const unsigned char *)String_val(key);
  uint32_t s[8];
  unsigned char inner[32], out[32];
  load_state(s, k);
  digest_from(s, 64, (const unsigned char *)String_val(msg),
              caml_string_length(msg), inner);
  load_state(s, k + 32);
  digest_from(s, 64, inner, 32, out);
  CAMLreturn(alloc_bytes(out, 32));
}
