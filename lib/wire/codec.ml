(* The wire format lives in [Mewc_sim.Codec], below the protocols whose
   messages it encodes; this alias keeps [Mewc_wire.Codec] for clients. *)
include Mewc_sim.Codec
