(** Structured diagnostics with stable codes, severities, and source
    locations, rendered human-readable or as JSON.

    Code families: [P0xx] parse errors, [V1xx]/[V2xx]/[V3xx] DOANY /
    DOACROSS / PS-DSWP legality violations, [V0xx] PDG integrity, [N4xx]
    scheme-inhibitor explanations, [W6xx] lint warnings, [S7xx] race
    sanitizer soundness violations, [G7xx] sanitizer precision gaps,
    [D1xx] doctor findings, [L1xx] latency findings. *)

open Parcae_ir

type severity = Error | Warning | Info

type t = {
  code : string;  (** stable, e.g. ["V302"] *)
  severity : severity;
  loc : Loop.loc option;
  message : string;
}

val make :
  ?loc:Loop.loc -> code:string -> severity:severity -> ('a, unit, string, t) format4 -> 'a

val error : ?loc:Loop.loc -> string -> ('a, unit, string, t) format4 -> 'a
val warning : ?loc:Loop.loc -> string -> ('a, unit, string, t) format4 -> 'a
val info : ?loc:Loop.loc -> string -> ('a, unit, string, t) format4 -> 'a

val severity_to_string : severity -> string
val is_error : t -> bool
val count_errors : t list -> int

val to_string : t -> string
(** GCC-style: ["file:line: severity[CODE]: message"]. *)

val to_json : t -> Parcae_obs.Json.t
(** [{"code", "severity", "message"}], plus ["file"] and ["line"] when
    located. *)

val render : t list -> string
(** One {!to_string} line per finding, then
    ["N error(s), M warning(s)"]. *)

val sort : t list -> t list
(** Errors first, then warnings, then infos; stable within a class. *)
