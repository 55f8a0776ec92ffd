(** A compilable parallel region: one loop with phi-carried state, a
    straight-line body, and a counted or data-dependent trip. *)

type trip =
  | Count of int  (** execute exactly n iterations *)
  | While  (** run until some Break_if fires *)

type loc = { loc_file : string; loc_line : int }
(** A source position carried from the [.loop] frontend. *)

val loc_to_string : loc -> string
(** ["file:line"]. *)

type t = {
  name : string;
  phis : Instr.phi list;
  body : Instr.t list;
  trip : trip;
  arrays : (string * int array) list;
      (** named arrays with initial contents; a run works on
          {!working_arrays}, and their final contents are part of the
          observable result *)
  live_out : Instr.reg list;
      (** phi destinations whose final values the surrounding code
          consumes *)
  locs : loc option array;
      (** per-node source locations, indexed like {!nodes}; [[||]] when the
          region was built programmatically *)
}

val create :
  ?phis:Instr.phi list ->
  ?arrays:(string * int array) list ->
  ?live_out:Instr.reg list ->
  ?locs:loc option array ->
  name:string ->
  trip:trip ->
  Instr.t list ->
  t

val working_arrays : t -> (string * int array) list
(** The arrays one run works on, in [arrays] order: a fresh copy of each
    array the body stores to, and the loop's own array (physically
    shared) for each it only loads.  A run therefore leaves [arrays]
    unchanged, and relaunches of one loop start from the same data. *)

val loc_of : t -> int -> loc option
(** Source location of node [id], if the frontend recorded one. *)

(** Instruction-level nodes: phis first, then body instructions.  Node ids
    index into {!nodes} everywhere downstream (PDG, SCCs, stages). *)
type node = Phi_node of Instr.phi | Instr_node of Instr.t

val nodes : t -> node array
val node_to_string : node -> string
val node_defs : node -> Instr.reg option
val node_uses : node -> Instr.reg list

val validate : t -> unit
(** Single assignment, all uses defined, carries defined, live-outs are
    phi destinations, arrays declared.
    @raise Invalid_argument otherwise. *)

val pp : Format.formatter -> t -> unit
