(** The protocol registry: one entry per protocol the system can run.

    An entry packs what every surface needs to run a protocol by name: the
    {!Protocol.S} instance, the run preset [mewc run -p NAME --input I]
    executes, the protocol's named attacks, and how the CLI prints a
    decision, and — for a protocol that runs on the async runtime — its
    wire codec. The CLI, {!Sweep}, {!Degrade}, the fuzzer and the wire
    harness ([Mewc_wire.Zoo]) look protocols up here instead of matching on
    their names. Adding a protocol is one entry below. *)

open Mewc_sim

type ('s, 'm) attack =
  cfg:Config.t -> f:int -> input:string -> ('s, 'm) Adversary.factory
(** A named attack, built from the system size, the requested corruption
    count and the run's input string. *)

type ('p, 's, 'm, 'd) t = {
  protocol : ('p, 's, 'm, 'd) Protocol.t;
  params : Config.t -> input:string -> 'p;
      (** the run preset: what [mewc run -p NAME --input I] executes *)
  attacks : (string * ('s, 'm) attack) list;
      (** the protocol's own adversaries, by CLI name; the generic ones
          (honest, crash, staggered) apply to every protocol *)
  show : 'd -> string;  (** the CLI's rendering of one decision *)
  counters : bool;
      (** whether the adaptive counters (non-silent phases, help requests,
          fallback runs) mean anything for this protocol *)
  wire : ('m Codec.t * (Mewc_prelude.Rng.t -> 'm)) option;
      (** the message codec and a random well-formed message generator for
          its laws; [Some] iff the protocol runs on the async runtime *)
}

type entry = E : ('p, 's, 'm, 'd) t -> entry

let quoted v = Printf.sprintf "%S" v
let victims f = List.init f (fun i -> i + 1)

let fallback =
  let module P = Instances.Fallback_protocol in
  {
    protocol = (module P);
    params =
      (fun cfg ~input ->
        {
          (P.default_params cfg) with
          P.inputs =
            Array.init cfg.Config.n (fun i -> Printf.sprintf "%s%d" input (i mod 3));
        });
    attacks =
      [
        ( "equivocating-king",
          fun ~cfg ~f:_ ~input ->
            Attacks.epk_equivocating_king ~cfg ~king:1 ~v1:(input ^ "1")
              ~v2:(input ^ "2") );
      ];
    show = quoted;
    counters = false;
    wire = Some (Instances.Epk_str.codec, Instances.Epk_str.gen);
  }

let weak_ba =
  let module P = Instances.Weak_ba_protocol in
  {
    protocol = (module P);
    params =
      (fun cfg ~input ->
        { (P.default_params cfg) with P.inputs = Array.make cfg.Config.n input });
    attacks =
      [
        ( "busy-leaders",
          fun ~cfg ~f ~input:_ ->
            Attacks.wba_busy_byz_leaders ~cfg ~leaders:(victims f) );
        ( "lonely-decider",
          fun ~cfg ~f:_ ~input:_ ->
            Attacks.wba_lonely_decider ~cfg ~lucky:(cfg.Config.t + 1) );
        ( "help-spam",
          fun ~cfg ~f ~input:_ ->
            Attacks.wba_help_req_spammers ~cfg
              ~spammers:(List.init f (fun i -> cfg.Config.n - 1 - i)) );
      ];
    show =
      (function
      | Instances.Weak_str.Value v -> quoted v | Instances.Weak_str.Bot -> "⊥");
    counters = true;
    wire =
      Some
        ( Instances.Weak_str.codec Instances.Epk_str.codec,
          Instances.Weak_str.gen Instances.Epk_str.gen );
  }

let bb =
  {
    protocol = (module Instances.Bb_protocol);
    params = (fun _ ~input -> { Instances.Bb_protocol.sender = 0; input });
    attacks =
      [
        ( "equivocating-sender",
          fun ~cfg ~f:_ ~input ->
            Attacks.bb_equivocating_sender ~cfg ~sender:0 ~v1:input
              ~v2:(input ^ "'") );
      ];
    show =
      (function Adaptive_bb.Decided v -> quoted v | Adaptive_bb.No_decision -> "⊥");
    counters = true;
    wire = Some (Adaptive_bb.codec, Adaptive_bb.gen);
  }

(* Binary BB and strong BA ignore the input string: the sender broadcasts
   [true], and strong BA's inputs alternate by pid so the run takes the
   non-unanimous path. *)
let binary_bb =
  {
    protocol = (module Instances.Binary_bb_protocol);
    params = (fun cfg ~input:_ -> Instances.Binary_bb_protocol.default_params cfg);
    attacks = [];
    show = string_of_bool;
    counters = true;
    wire =
      Some
        ( Instances.Binary_bb_bool.codec Instances.Epk_bool.codec,
          Instances.Binary_bb_bool.gen Instances.Epk_bool.gen );
  }

let strong_ba =
  {
    protocol = (module Instances.Strong_ba_protocol);
    params =
      (fun cfg ~input:_ ->
        {
          Instances.Strong_ba_protocol.leader = 0;
          inputs = Array.init cfg.Config.n (fun i -> i mod 2 = 0);
        });
    attacks =
      [
        ( "withholding-leader",
          fun ~cfg ~f:_ ~input:_ ->
            Attacks.sba_withholding_leader ~cfg ~leader:0
              ~lucky:(min 3 (cfg.Config.n - 1)) );
      ];
    show = string_of_bool;
    counters = true;
    wire =
      Some
        ( Instances.Strong_bool.codec Instances.Epk_bool.codec,
          Instances.Strong_bool.gen Instances.Epk_bool.gen );
  }

let dolev_strong =
  let module D = Mewc_baselines.Dolev_strong in
  {
    protocol = (module Instances.Dolev_strong_protocol);
    params = (fun _ ~input -> { Instances.Dolev_strong_protocol.sender = 0; input });
    attacks = [];
    show = (function D.Decided v -> quoted v | D.No_decision -> "⊥");
    counters = false;
    wire = None;
  }

let naive_bb =
  let module N = Mewc_baselines.Naive_bb in
  {
    protocol = (module Instances.Naive_bb_protocol);
    params = (fun _ ~input -> { Instances.Naive_bb_protocol.sender = 0; input });
    attacks = [];
    show = (function N.Decided v -> quoted v | N.No_decision -> "⊥");
    counters = false;
    wire = None;
  }

let entries =
  [ E fallback; E weak_ba; E bb; E binary_bb; E strong_ba; E dolev_strong; E naive_bb ]

(* The instance's [P.name], which is also its CLI spelling. *)
let name (type p s m d) (r : (p, s, m, d) t) =
  let module P = (val r.protocol) in
  P.name

let entry_name (E r) = name r
let names = List.map entry_name entries
let find n = List.find_opt (fun e -> String.equal (entry_name e) n) entries
