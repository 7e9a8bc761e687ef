open Mewc_prelude
open Mewc_crypto
open Mewc_sim
open Mewc_core

let ( let* ) = Result.bind

(* ---- echo-phase-king, generic over the value domain -------------------- *)

module Epk_codec
    (V : Value.S)
    (P : module type of Mewc_fallback.Echo_phase_king.Make (V)) (C : sig
      val value : V.t Codec.t
    end) =
struct
  open Codec

  let just : P.justification t =
    {
      write =
        (fun b -> function
          | P.Unjustified -> W.u8 b 0
          | P.Input_cert c ->
            W.u8 b 1;
            cert_c.write b c
          | P.Lock_just { level; qc } ->
            W.u8 b 2;
            W.vint b level;
            cert_c.write b qc);
      read =
        (fun r ->
          let* tag = R.u8 r in
          match tag with
          | 0 -> Ok P.Unjustified
          | 1 ->
            let* c = cert_c.read r in
            Ok (P.Input_cert c)
          | 2 ->
            let* level = R.vint r in
            let* qc = cert_c.read r in
            Ok (P.Lock_just { level; qc })
          | tag -> Error (Bad_tag { what = "epk-just"; tag }));
    }

  let proposal : P.proposal t =
    {
      write =
        (fun b (p : P.proposal) ->
          W.vint b p.p_phase;
          C.value.write b p.p_value;
          just.write b p.p_just;
          sig_c.write b p.p_king_sig;
          W.bool b p.p_just_valid);
      read =
        (fun r ->
          let* p_phase = R.vint r in
          let* p_value = C.value.read r in
          let* p_just = just.read r in
          let* p_king_sig = sig_c.read r in
          let* p_just_valid = R.bool r in
          Ok { P.p_phase; p_value; p_just; p_king_sig; p_just_valid });
    }

  let lock_c = option_c (triple vint_c C.value cert_c)
  let input_qc_c = option_c (pair C.value cert_c)

  let body : P.body t =
    {
      write =
        (fun b -> function
          | P.Input { value; share } ->
            W.u8 b 0;
            C.value.write b value;
            sig_c.write b share
          | P.Status { phase; lock; input_qc } ->
            W.u8 b 1;
            W.vint b phase;
            lock_c.write b lock;
            input_qc_c.write b input_qc
          | P.Propose p ->
            W.u8 b 2;
            proposal.write b p
          | P.Echo p ->
            W.u8 b 3;
            proposal.write b p
          | P.Vote { phase; value; share } ->
            W.u8 b 4;
            W.vint b phase;
            C.value.write b value;
            sig_c.write b share
          | P.Commit { phase; value; qc } ->
            W.u8 b 5;
            W.vint b phase;
            C.value.write b value;
            cert_c.write b qc
          | P.Ack { phase; value; share; qc } ->
            W.u8 b 6;
            W.vint b phase;
            C.value.write b value;
            sig_c.write b share;
            cert_c.write b qc
          | P.Decided { phase; value; qc } ->
            W.u8 b 7;
            W.vint b phase;
            C.value.write b value;
            cert_c.write b qc);
      read =
        (fun r ->
          let* tag = R.u8 r in
          match tag with
          | 0 ->
            let* value = C.value.read r in
            let* share = sig_c.read r in
            Ok (P.Input { value; share })
          | 1 ->
            let* phase = R.vint r in
            let* lock = lock_c.read r in
            let* input_qc = input_qc_c.read r in
            Ok (P.Status { phase; lock; input_qc })
          | 2 ->
            let* p = proposal.read r in
            Ok (P.Propose p)
          | 3 ->
            let* p = proposal.read r in
            Ok (P.Echo p)
          | 4 ->
            let* phase = R.vint r in
            let* value = C.value.read r in
            let* share = sig_c.read r in
            Ok (P.Vote { phase; value; share })
          | 5 ->
            let* phase = R.vint r in
            let* value = C.value.read r in
            let* qc = cert_c.read r in
            Ok (P.Commit { phase; value; qc })
          | 6 ->
            let* phase = R.vint r in
            let* value = C.value.read r in
            let* share = sig_c.read r in
            let* qc = cert_c.read r in
            Ok (P.Ack { phase; value; share; qc })
          | 7 ->
            let* phase = R.vint r in
            let* value = C.value.read r in
            let* qc = cert_c.read r in
            Ok (P.Decided { phase; value; qc })
          | tag -> Error (Bad_tag { what = "epk-body"; tag }));
    }

  let msg : P.msg t =
    {
      write =
        (fun b (m : P.msg) ->
          W.vint b m.round;
          body.write b m.body);
      read =
        (fun r ->
          let* round = R.vint r in
          let* body = body.read r in
          Ok { P.round; body });
    }
end

(* ---- weak BA, generic over value domain and fallback ------------------- *)

module Weak_codec
    (V : Value.S)
    (F : Fallback_intf.FALLBACK with type value = V.t)
    (P : module type of Weak_ba.Make (V) (F)) (C : sig
      val value : V.t Codec.t
      val fb : F.msg Codec.t
    end) =
struct
  open Codec

  let decision_c = option_c (triple vint_c C.value cert_c)

  let msg : P.msg t =
    {
      write =
        (fun b -> function
          | P.Propose { phase; value; sg } ->
            W.u8 b 0;
            W.vint b phase;
            C.value.write b value;
            sig_c.write b sg
          | P.Vote { phase; value; share } ->
            W.u8 b 1;
            W.vint b phase;
            C.value.write b value;
            sig_c.write b share
          | P.Commit_answer { phase; value; level; qc } ->
            W.u8 b 2;
            W.vint b phase;
            C.value.write b value;
            W.vint b level;
            cert_c.write b qc
          | P.Commit_bcast { phase; value; level; qc } ->
            W.u8 b 3;
            W.vint b phase;
            C.value.write b value;
            W.vint b level;
            cert_c.write b qc
          | P.Decide_share { phase; value; share } ->
            W.u8 b 4;
            W.vint b phase;
            C.value.write b value;
            sig_c.write b share
          | P.Finalized { phase; value; qc } ->
            W.u8 b 5;
            W.vint b phase;
            C.value.write b value;
            cert_c.write b qc
          | P.Help_req { sg } ->
            W.u8 b 6;
            sig_c.write b sg
          | P.Help { phase; value; qc } ->
            W.u8 b 7;
            W.vint b phase;
            C.value.write b value;
            cert_c.write b qc
          | P.Fallback_cert { qc; decision } ->
            W.u8 b 8;
            cert_c.write b qc;
            decision_c.write b decision
          | P.Fb m ->
            W.u8 b 9;
            C.fb.write b m);
      read =
        (fun r ->
          let* tag = R.u8 r in
          match tag with
          | 0 ->
            let* phase = R.vint r in
            let* value = C.value.read r in
            let* sg = sig_c.read r in
            Ok (P.Propose { phase; value; sg })
          | 1 ->
            let* phase = R.vint r in
            let* value = C.value.read r in
            let* share = sig_c.read r in
            Ok (P.Vote { phase; value; share })
          | 2 ->
            let* phase = R.vint r in
            let* value = C.value.read r in
            let* level = R.vint r in
            let* qc = cert_c.read r in
            Ok (P.Commit_answer { phase; value; level; qc })
          | 3 ->
            let* phase = R.vint r in
            let* value = C.value.read r in
            let* level = R.vint r in
            let* qc = cert_c.read r in
            Ok (P.Commit_bcast { phase; value; level; qc })
          | 4 ->
            let* phase = R.vint r in
            let* value = C.value.read r in
            let* share = sig_c.read r in
            Ok (P.Decide_share { phase; value; share })
          | 5 ->
            let* phase = R.vint r in
            let* value = C.value.read r in
            let* qc = cert_c.read r in
            Ok (P.Finalized { phase; value; qc })
          | 6 ->
            let* sg = sig_c.read r in
            Ok (P.Help_req { sg })
          | 7 ->
            let* phase = R.vint r in
            let* value = C.value.read r in
            let* qc = cert_c.read r in
            Ok (P.Help { phase; value; qc })
          | 8 ->
            let* qc = cert_c.read r in
            let* decision = decision_c.read r in
            Ok (P.Fallback_cert { qc; decision })
          | 9 ->
            let* m = C.fb.read r in
            Ok (P.Fb m)
          | tag -> Error (Bad_tag { what = "weak-ba"; tag }));
    }
end

(* ---- failure-free strong BA, generic over the fallback ----------------- *)

module Strong_codec
    (F : Fallback_intf.FALLBACK with type value = bool)
    (P : module type of Ff_strong_ba.Make (F)) (C : sig
      val fb : F.msg Codec.t
    end) =
struct
  open Codec

  let decision_c = option_c (pair bool_c cert_c)

  let msg : P.msg t =
    {
      write =
        (fun b -> function
          | P.Input { value; share } ->
            W.u8 b 0;
            W.bool b value;
            sig_c.write b share
          | P.Propose { value; qc } ->
            W.u8 b 1;
            W.bool b value;
            cert_c.write b qc
          | P.Decide_share { value; share } ->
            W.u8 b 2;
            W.bool b value;
            sig_c.write b share
          | P.Decide { value; qc } ->
            W.u8 b 3;
            W.bool b value;
            cert_c.write b qc
          | P.Fallback { decision } ->
            W.u8 b 4;
            decision_c.write b decision
          | P.Fb m ->
            W.u8 b 5;
            C.fb.write b m);
      read =
        (fun r ->
          let* tag = R.u8 r in
          match tag with
          | 0 ->
            let* value = R.bool r in
            let* share = sig_c.read r in
            Ok (P.Input { value; share })
          | 1 ->
            let* value = R.bool r in
            let* qc = cert_c.read r in
            Ok (P.Propose { value; qc })
          | 2 ->
            let* value = R.bool r in
            let* share = sig_c.read r in
            Ok (P.Decide_share { value; share })
          | 3 ->
            let* value = R.bool r in
            let* qc = cert_c.read r in
            Ok (P.Decide { value; qc })
          | 4 ->
            let* decision = decision_c.read r in
            Ok (P.Fallback { decision })
          | 5 ->
            let* m = C.fb.read r in
            Ok (P.Fb m)
          | tag -> Error (Bad_tag { what = "strong-ba"; tag }));
    }
end

(* ---- concrete instantiations ------------------------------------------- *)

module Epk_str_c =
  Epk_codec (Value.Str) (Instances.Epk_str)
    (struct
      let value = Codec.value_str
    end)

module Epk_bool_c =
  Epk_codec (Value.Bool) (Instances.Epk_bool)
    (struct
      let value = Codec.value_bool
    end)

let epk_str_msg = Epk_str_c.msg
let epk_bool_msg = Epk_bool_c.msg

module Weak_str_c =
  Weak_codec (Value.Str) (Instances.Fallback_str) (Instances.Weak_str)
    (struct
      let value = Codec.value_str
      let fb = epk_str_msg
    end)

let weak_str_msg = Weak_str_c.msg

let bb_value_c : Adaptive_bb.bb_value Codec.t =
  let open Codec in
  {
    write =
      (fun b -> function
        | Adaptive_bb.Sender_signed { value; sg } ->
          W.u8 b 0;
          value_str.write b value;
          sig_c.write b sg
        | Adaptive_bb.Idk_cert c ->
          W.u8 b 1;
          cert_c.write b c);
    read =
      (fun r ->
        let* tag = R.u8 r in
        match tag with
        | 0 ->
          let* value = value_str.read r in
          let* sg = sig_c.read r in
          Ok (Adaptive_bb.Sender_signed { value; sg })
        | 1 ->
          let* c = cert_c.read r in
          Ok (Adaptive_bb.Idk_cert c)
        | tag -> Error (Bad_tag { what = "bb-value"; tag }));
  }

(* The BB layer's embedded phase king and weak BA run over wrapped values;
   instantiating the same functors at the same module paths pins the type
   identities to [Adaptive_bb]'s own. *)
module Epk_bbv = Mewc_fallback.Echo_phase_king.Make (Adaptive_bb.Bb_value)

module Epk_bbv_c =
  Epk_codec (Adaptive_bb.Bb_value) (Epk_bbv)
    (struct
      let value = bb_value_c
    end)

module Weak_bbv_c =
  Weak_codec (Adaptive_bb.Bb_value) (Adaptive_bb.Fallback_bb) (Adaptive_bb.W)
    (struct
      let value = bb_value_c
      let fb = Epk_bbv_c.msg
    end)

let adaptive_bb_msg : Adaptive_bb.msg Codec.t =
  let open Codec in
  {
    write =
      (fun b -> function
        | Adaptive_bb.Send { value; sg } ->
          W.u8 b 0;
          value_str.write b value;
          sig_c.write b sg
        | Adaptive_bb.Vet_help_req { phase; sg } ->
          W.u8 b 1;
          W.vint b phase;
          sig_c.write b sg
        | Adaptive_bb.Vet_value { phase; value } ->
          W.u8 b 2;
          W.vint b phase;
          bb_value_c.write b value
        | Adaptive_bb.Vet_idk { phase; share } ->
          W.u8 b 3;
          W.vint b phase;
          sig_c.write b share
        | Adaptive_bb.Vet_bcast { phase; value } ->
          W.u8 b 4;
          W.vint b phase;
          bb_value_c.write b value
        | Adaptive_bb.Wba m ->
          W.u8 b 5;
          Weak_bbv_c.msg.write b m);
    read =
      (fun r ->
        let* tag = R.u8 r in
        match tag with
        | 0 ->
          let* value = value_str.read r in
          let* sg = sig_c.read r in
          Ok (Adaptive_bb.Send { value; sg })
        | 1 ->
          let* phase = R.vint r in
          let* sg = sig_c.read r in
          Ok (Adaptive_bb.Vet_help_req { phase; sg })
        | 2 ->
          let* phase = R.vint r in
          let* value = bb_value_c.read r in
          Ok (Adaptive_bb.Vet_value { phase; value })
        | 3 ->
          let* phase = R.vint r in
          let* share = sig_c.read r in
          Ok (Adaptive_bb.Vet_idk { phase; share })
        | 4 ->
          let* phase = R.vint r in
          let* value = bb_value_c.read r in
          Ok (Adaptive_bb.Vet_bcast { phase; value })
        | 5 ->
          let* m = Weak_bbv_c.msg.read r in
          Ok (Adaptive_bb.Wba m)
        | tag -> Error (Bad_tag { what = "adaptive-bb"; tag }));
  }

module Strong_bool_c =
  Strong_codec (Instances.Fallback_bool) (Instances.Strong_bool)
    (struct
      let fb = epk_bool_msg
    end)

let strong_bool_msg = Strong_bool_c.msg

(* [Binary_bb_bool.Ba.msg] is a distinct nominal type from
   [Strong_bool.msg] (instances.mli seals each behind its own
   [module type of]), so the §7 codec functor is applied a second time. *)
module Strong_bb_c =
  Strong_codec (Instances.Fallback_bool) (Instances.Binary_bb_bool.Ba)
    (struct
      let fb = epk_bool_msg
    end)

let binary_bb_msg : Instances.Binary_bb_bool.msg Codec.t =
  let open Codec in
  {
    write =
      (fun b -> function
        | Instances.Binary_bb_bool.Send { value; sg } ->
          W.u8 b 0;
          W.bool b value;
          sig_c.write b sg
        | Instances.Binary_bb_bool.Ba m ->
          W.u8 b 1;
          Strong_bb_c.msg.write b m);
    read =
      (fun r ->
        let* tag = R.u8 r in
        match tag with
        | 0 ->
          let* value = R.bool r in
          let* sg = sig_c.read r in
          Ok (Instances.Binary_bb_bool.Send { value; sg })
        | 1 ->
          let* m = Strong_bb_c.msg.read r in
          Ok (Instances.Binary_bb_bool.Ba m)
        | tag -> Error (Bad_tag { what = "binary-bb"; tag }));
  }

(* ---- generators --------------------------------------------------------- *)

module Gen = struct
  let bytes g len = String.init len (fun _ -> Char.chr (Rng.int g 256))
  let value_str g = bytes g (Rng.int g 33)
  let tag g = Sha256.digest (bytes g 16)

  let sig_ g =
    Pki.Wire.sig_of_view ~signer:(Rng.int g 64) ~tag:(tag g)

  let tsig g =
    let k = Rng.int g 6 in
    let signers = Rng.sample g k (List.init 16 Fun.id) in
    Pki.Wire.tsig_of_view ~signers ~tag:(tag g)

  let cert g =
    Certificate.Wire.of_view
      ~purpose:(Rng.pick g [ "input"; "commit"; "ack"; "idk"; "decide" ])
      ~payload:(bytes g (Rng.int g 48))
      ~tsig:(tsig g)

  let frame g =
    let kind = if Rng.int g 8 = 0 then Codec.Done else Codec.Msg in
    {
      Codec.kind;
      src = Rng.int g 16;
      dst = Rng.int g 16;
      slot = Rng.int g 1000;
      seq = Rng.int g 10_000;
      payload = (if kind = Codec.Done then "" else bytes g (Rng.int g 200));
    }

  (* The phase-king bodies are shared shape-wise across instantiations, but
     the types are distinct; three small concrete generators are simpler
     than a generator functor. *)
  let epk_str g : Instances.Epk_str.msg =
    let open Instances.Epk_str in
    let just () =
      match Rng.int g 3 with
      | 0 -> Unjustified
      | 1 -> Input_cert (cert g)
      | _ -> Lock_just { level = Rng.int g 8; qc = cert g }
    in
    let proposal () =
      {
        p_phase = Rng.int g 8;
        p_value = value_str g;
        p_just = just ();
        p_king_sig = sig_ g;
        p_just_valid = Rng.bool g;
      }
    in
    let body =
      match Rng.int g 8 with
      | 0 -> Input { value = value_str g; share = sig_ g }
      | 1 ->
        Status
          {
            phase = Rng.int g 8;
            lock =
              (if Rng.bool g then None
               else Some (Rng.int g 8, value_str g, cert g));
            input_qc =
              (if Rng.bool g then None else Some (value_str g, cert g));
          }
      | 2 -> Propose (proposal ())
      | 3 -> Echo (proposal ())
      | 4 -> Vote { phase = Rng.int g 8; value = value_str g; share = sig_ g }
      | 5 -> Commit { phase = Rng.int g 8; value = value_str g; qc = cert g }
      | 6 ->
        Ack
          {
            phase = Rng.int g 8;
            value = value_str g;
            share = sig_ g;
            qc = cert g;
          }
      | _ -> Decided { phase = Rng.int g 8; value = value_str g; qc = cert g }
    in
    { round = Rng.int g 32; body }

  let epk_bool g : Instances.Epk_bool.msg =
    let open Instances.Epk_bool in
    let just () =
      match Rng.int g 3 with
      | 0 -> Unjustified
      | 1 -> Input_cert (cert g)
      | _ -> Lock_just { level = Rng.int g 8; qc = cert g }
    in
    let proposal () =
      {
        p_phase = Rng.int g 8;
        p_value = Rng.bool g;
        p_just = just ();
        p_king_sig = sig_ g;
        p_just_valid = Rng.bool g;
      }
    in
    let body =
      match Rng.int g 8 with
      | 0 -> Input { value = Rng.bool g; share = sig_ g }
      | 1 ->
        Status
          {
            phase = Rng.int g 8;
            lock =
              (if Rng.bool g then None
               else Some (Rng.int g 8, Rng.bool g, cert g));
            input_qc = (if Rng.bool g then None else Some (Rng.bool g, cert g));
          }
      | 2 -> Propose (proposal ())
      | 3 -> Echo (proposal ())
      | 4 -> Vote { phase = Rng.int g 8; value = Rng.bool g; share = sig_ g }
      | 5 -> Commit { phase = Rng.int g 8; value = Rng.bool g; qc = cert g }
      | 6 ->
        Ack
          {
            phase = Rng.int g 8;
            value = Rng.bool g;
            share = sig_ g;
            qc = cert g;
          }
      | _ -> Decided { phase = Rng.int g 8; value = Rng.bool g; qc = cert g }
    in
    { round = Rng.int g 32; body }

  let weak_str g : Instances.Weak_str.msg =
    let open Instances.Weak_str in
    match Rng.int g 10 with
    | 0 -> Propose { phase = Rng.int g 8; value = value_str g; sg = sig_ g }
    | 1 -> Vote { phase = Rng.int g 8; value = value_str g; share = sig_ g }
    | 2 ->
      Commit_answer
        {
          phase = Rng.int g 8;
          value = value_str g;
          level = Rng.int g 4;
          qc = cert g;
        }
    | 3 ->
      Commit_bcast
        {
          phase = Rng.int g 8;
          value = value_str g;
          level = Rng.int g 4;
          qc = cert g;
        }
    | 4 -> Decide_share { phase = Rng.int g 8; value = value_str g; share = sig_ g }
    | 5 -> Finalized { phase = Rng.int g 8; value = value_str g; qc = cert g }
    | 6 -> Help_req { sg = sig_ g }
    | 7 -> Help { phase = Rng.int g 8; value = value_str g; qc = cert g }
    | 8 ->
      Fallback_cert
        {
          qc = cert g;
          decision =
            (if Rng.bool g then None
             else Some (Rng.int g 8, value_str g, cert g));
        }
    | _ -> Fb (epk_str g)

  let bb_value g : Adaptive_bb.bb_value =
    if Rng.bool g then
      Adaptive_bb.Sender_signed { value = value_str g; sg = sig_ g }
    else Adaptive_bb.Idk_cert (cert g)

  let epk_bbv g : Epk_bbv.msg =
    let open Epk_bbv in
    let body =
      match Rng.int g 4 with
      | 0 -> Input { value = bb_value g; share = sig_ g }
      | 1 -> Vote { phase = Rng.int g 8; value = bb_value g; share = sig_ g }
      | 2 -> Commit { phase = Rng.int g 8; value = bb_value g; qc = cert g }
      | _ -> Decided { phase = Rng.int g 8; value = bb_value g; qc = cert g }
    in
    { round = Rng.int g 32; body }

  let weak_bbv g : Adaptive_bb.W.msg =
    let open Adaptive_bb.W in
    match Rng.int g 5 with
    | 0 -> Propose { phase = Rng.int g 8; value = bb_value g; sg = sig_ g }
    | 1 -> Vote { phase = Rng.int g 8; value = bb_value g; share = sig_ g }
    | 2 -> Finalized { phase = Rng.int g 8; value = bb_value g; qc = cert g }
    | 3 -> Help_req { sg = sig_ g }
    | _ -> Fb (epk_bbv g)

  let adaptive g : Adaptive_bb.msg =
    match Rng.int g 6 with
    | 0 -> Adaptive_bb.Send { value = value_str g; sg = sig_ g }
    | 1 -> Adaptive_bb.Vet_help_req { phase = Rng.int g 8; sg = sig_ g }
    | 2 -> Adaptive_bb.Vet_value { phase = Rng.int g 8; value = bb_value g }
    | 3 -> Adaptive_bb.Vet_idk { phase = Rng.int g 8; share = sig_ g }
    | 4 -> Adaptive_bb.Vet_bcast { phase = Rng.int g 8; value = bb_value g }
    | _ -> Adaptive_bb.Wba (weak_bbv g)

  let strong_body g ~fb =
    match Rng.int g 6 with
    | 0 -> `Input (Rng.bool g, sig_ g)
    | 1 -> `Propose (Rng.bool g, cert g)
    | 2 -> `Decide_share (Rng.bool g, sig_ g)
    | 3 -> `Decide (Rng.bool g, cert g)
    | 4 ->
      `Fallback (if Rng.bool g then None else Some (Rng.bool g, cert g))
    | _ -> `Fb (fb ())

  let strong g : Instances.Strong_bool.msg =
    match strong_body g ~fb:(fun () -> epk_bool g) with
    | `Input (value, share) -> Instances.Strong_bool.Input { value; share }
    | `Propose (value, qc) -> Instances.Strong_bool.Propose { value; qc }
    | `Decide_share (value, share) ->
      Instances.Strong_bool.Decide_share { value; share }
    | `Decide (value, qc) -> Instances.Strong_bool.Decide { value; qc }
    | `Fallback decision -> Instances.Strong_bool.Fallback { decision }
    | `Fb m -> Instances.Strong_bool.Fb m

  let strong_bb g : Instances.Binary_bb_bool.Ba.msg =
    match strong_body g ~fb:(fun () -> epk_bool g) with
    | `Input (value, share) -> Instances.Binary_bb_bool.Ba.Input { value; share }
    | `Propose (value, qc) -> Instances.Binary_bb_bool.Ba.Propose { value; qc }
    | `Decide_share (value, share) ->
      Instances.Binary_bb_bool.Ba.Decide_share { value; share }
    | `Decide (value, qc) -> Instances.Binary_bb_bool.Ba.Decide { value; qc }
    | `Fallback decision -> Instances.Binary_bb_bool.Ba.Fallback { decision }
    | `Fb m -> Instances.Binary_bb_bool.Ba.Fb m

  let binary g : Instances.Binary_bb_bool.msg =
    if Rng.int g 4 = 0 then
      Instances.Binary_bb_bool.Send { value = Rng.bool g; sg = sig_ g }
    else Instances.Binary_bb_bool.Ba (strong_bb g)
end

(* ---- codec fuzz battery ------------------------------------------------- *)

type probe = Probe : string * 'a Codec.t -> probe

let probes =
  [
    Probe ("sig", Codec.sig_c);
    Probe ("tsig", Codec.tsig_c);
    Probe ("cert", Codec.cert_c);
    Probe ("epk-str", epk_str_msg);
    Probe ("epk-bool", epk_bool_msg);
    Probe ("weak-ba", weak_str_msg);
    Probe ("adaptive-bb", adaptive_bb_msg);
    Probe ("binary-bb", binary_bb_msg);
    Probe ("strong-ba", strong_bool_msg);
  ]

type round_trip = Trip : string * 'a Codec.t * (Rng.t -> 'a) -> round_trip

let trips =
  [
    Trip ("sig", Codec.sig_c, Gen.sig_);
    Trip ("tsig", Codec.tsig_c, Gen.tsig);
    Trip ("cert", Codec.cert_c, Gen.cert);
    Trip ("epk-str", epk_str_msg, Gen.epk_str);
    Trip ("epk-bool", epk_bool_msg, Gen.epk_bool);
    Trip ("weak-ba", weak_str_msg, Gen.weak_str);
    Trip ("adaptive-bb", adaptive_bb_msg, Gen.adaptive);
    Trip ("binary-bb", binary_bb_msg, Gen.binary);
    Trip ("strong-ba", strong_bool_msg, Gen.strong);
  ]

let fuzz_codec ~count ~seed =
  let g = Rng.create seed in
  let cases = ref 0 in
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let check_round_trip () =
    List.fold_left
      (fun acc (Trip (name, c, gen)) ->
        let* () = acc in
        incr cases;
        let v = gen g in
        let e = Codec.encode c v in
        match Codec.decode c e with
        | Error err ->
          fail "round-trip: %s rejects its own encoding (%s)" name
            (Codec.error_to_string err)
        | Ok v' ->
          if String.equal (Codec.encode c v') e then Ok ()
          else fail "round-trip: %s re-encodes differently" name)
      (Ok ()) trips
  in
  let check_adversarial () =
    let s = Gen.bytes g (Rng.int g 4097) in
    List.fold_left
      (fun acc (Probe (name, c)) ->
        let* () = acc in
        incr cases;
        match Codec.decode c s with
        | exception e ->
          fail "adversarial: %s raised %s" name (Printexc.to_string e)
        | Error _ -> Ok ()
        | Ok v ->
          if String.equal (Codec.encode c v) s then Ok ()
          else fail "adversarial: %s decoded a non-canonical input" name)
      (Ok ()) probes
    |> fun acc ->
    let* () = acc in
    incr cases;
    match Codec.decode_frame s with
    | exception e -> fail "adversarial: frame raised %s" (Printexc.to_string e)
    | Ok _ | Error _ -> Ok ()
  in
  let check_mutation () =
    incr cases;
    let f = Gen.frame g in
    let e = Bytes.of_string (Codec.encode_frame f) in
    let i = Rng.int g (Bytes.length e) in
    Bytes.set e i (Char.chr (Char.code (Bytes.get e i) lxor (1 lsl Rng.int g 8)));
    match Codec.decode_frame (Bytes.to_string e) with
    | exception ex ->
      fail "mutation: frame decoder raised %s" (Printexc.to_string ex)
    | Ok _ | Error _ -> Ok ()
  in
  let check_scan () =
    incr cases;
    (* a corrupted frame mid-stream must not derail reassembly: the scanner
       either recovers the following frame or parks on a pending prefix *)
    let f1 = Gen.frame g and f2 = Gen.frame g and f3 = Gen.frame g in
    let b2 = Bytes.of_string (Codec.encode_frame f2) in
    let i = Rng.int g (Bytes.length b2) in
    Bytes.set b2 i
      (Char.chr (Char.code (Bytes.get b2 i) lxor (1 lsl Rng.int g 8)));
    let stream =
      Codec.encode_frame f1 ^ Bytes.to_string b2 ^ Codec.encode_frame f3
    in
    let rec drive start acc steps =
      if steps > String.length stream + 16 then `Diverged
      else
        match Codec.scan stream ~start with
        | exception e -> `Raised (Printexc.to_string e)
        | `Frame (f, next) -> drive next (f :: acc) (steps + 1)
        | `Skip (next, _) -> drive next acc (steps + 1)
        | `Need_more _ -> `Parked (List.rev acc)
    in
    match drive 0 [] 0 with
    | `Raised e -> fail "scan: raised %s" e
    | `Diverged -> fail "scan: failed to make progress"
    | `Parked frames ->
      if List.exists (fun f -> f = f1) frames then Ok ()
      else fail "scan: lost the frame before the corruption"
  in
  let rec go i =
    if i >= count then Ok !cases
    else
      let* () = check_round_trip () in
      let* () = check_adversarial () in
      let* () = check_mutation () in
      let* () = check_scan () in
      go (i + 1)
  in
  go 0

(* ---- the differential harness ------------------------------------------ *)

type fingerprint = {
  decided_strs : string option array;
  decided_slots : int option array;
  words : int array;
}

let fingerprint_diff ~oracle ~async =
  let out = ref [] in
  let add fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  let opt = function None -> "-" | Some s -> s in
  let iopt = function None -> "-" | Some i -> string_of_int i in
  let n = Array.length oracle.decided_strs in
  if Array.length async.decided_strs <> n then
    add "process count: oracle %d, async %d" n (Array.length async.decided_strs)
  else
    for p = 0 to n - 1 do
      if oracle.decided_strs.(p) <> async.decided_strs.(p) then
        add "p%d decision: oracle %s, async %s" p
          (opt oracle.decided_strs.(p))
          (opt async.decided_strs.(p));
      if oracle.decided_slots.(p) <> async.decided_slots.(p) then
        add "p%d decided slot: oracle %s, async %s" p
          (iopt oracle.decided_slots.(p))
          (iopt async.decided_slots.(p));
      if oracle.words.(p) <> async.words.(p) then
        add "p%d words: oracle %d, async %d" p oracle.words.(p) async.words.(p)
    done;
  List.rev !out

type report = {
  fingerprint : fingerprint;
  verdict : Monitor.classification;
  stats : Runtime.stats;
  stalled : Pid.t list;
  failures : (Pid.t * string) list;
  wire_events : string Trace.event list;
}

type entry =
  | E : {
      reg : ('p, 's, 'm, 'd) Registry.t;
      codec : 'm Codec.t;
    }
      -> entry

let entries =
  [
    E { reg = Registry.fallback; codec = epk_str_msg };
    E { reg = Registry.weak_ba; codec = weak_str_msg };
    E { reg = Registry.bb; codec = adaptive_bb_msg };
    E { reg = Registry.binary_bb; codec = binary_bb_msg };
    E { reg = Registry.strong_ba; codec = strong_bool_msg };
  ]

let entry_name (E e) = Registry.name e.reg

let find name = List.find_opt (fun e -> String.equal (entry_name e) name) entries

let params_of (type p s m d) (proto : (p, s, m, d) Protocol.t) ~cfg ~salt : p =
  let module P = (val proto) in
  P.mutate_params (P.default_params cfg) ~salt

let oracle (E e) ~cfg ~seed ~salt =
  let proto = e.reg.Registry.protocol in
  let params = params_of proto ~cfg ~salt in
  let o =
    Instances.run proto ~cfg
      ~options:{ Instances.default_options with seed }
      ~params
      ~adversary:(Adversary.const (Adversary.honest ~name:"honest"))
      ()
  in
  let n = (cfg : Config.t).n in
  let words = Array.make n 0 in
  List.iter
    (fun (r : Meter.row) -> if r.ix >= 0 && r.ix < n then words.(r.ix) <- r.words)
    o.Instances.meter.Meter.per_process;
  {
    decided_strs = o.Instances.decided_strs;
    decided_slots = o.Instances.decided_slots;
    words;
  }

let classify (o : _ Runtime.outcome) : Monitor.classification =
  let n = Array.length o.Runtime.decided_strs in
  let unsafe = ref None in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      match (o.Runtime.decided_strs.(i), o.Runtime.decided_strs.(j)) with
      | Some a, Some b when (not (String.equal a b)) && !unsafe = None ->
        unsafe := Some (i, a, j, b)
      | _ -> ()
    done
  done;
  match !unsafe with
  | Some (i, a, j, b) ->
    Monitor.Unsafe
      {
        monitor = "wire-agreement";
        slot = o.Runtime.slots;
        reason = Printf.sprintf "p%d decided %S, p%d decided %S" i a j b;
      }
  | None ->
    let undecided =
      Array.to_list o.Runtime.decided_strs
      |> List.mapi (fun p d -> (p, d))
      |> List.filter_map (fun (p, d) -> if d = None then Some p else None)
    in
    if undecided = [] && o.Runtime.failures = [] then Monitor.Safe_live
    else
      Monitor.Safe_stalled
        {
          monitor = "wire-termination";
          slot = o.Runtime.slots;
          reason =
            (match o.Runtime.failures with
            | (p, e) :: _ -> Printf.sprintf "p%d died: %s" p e
            | [] ->
              Printf.sprintf "undecided: %s"
                (String.concat ","
                   (List.map (fun p -> Printf.sprintf "p%d" p) undecided)));
        }

let async (E e) ~cfg ~seed ~salt ?delta ?deadman ?byte_faults () =
  let proto = e.reg.Registry.protocol in
  let params = params_of proto ~cfg ~salt in
  let o =
    Runtime.run proto ~codec:e.codec ~cfg ~seed ?delta ?deadman ?byte_faults
      ~params ()
  in
  {
    fingerprint =
      {
        decided_strs = o.Runtime.decided_strs;
        decided_slots = o.Runtime.decided_slots;
        words = o.Runtime.words;
      };
    verdict = classify o;
    stats = o.Runtime.stats;
    stalled = o.Runtime.stalled;
    failures = o.Runtime.failures;
    wire_events = o.Runtime.wire_events;
  }

let diff e ~cfg ~seed ~salt ?delta () =
  let o = oracle e ~cfg ~seed ~salt in
  let r = async e ~cfg ~seed ~salt ?delta () in
  match fingerprint_diff ~oracle:o ~async:r.fingerprint with
  | [] -> Ok r
  | mismatches -> Error mismatches
