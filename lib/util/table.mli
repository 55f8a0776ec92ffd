(** Plain-text table rendering for the benchmark harness: one consistent,
    diffable format for every table and figure. *)

type align = Left | Right

type t

val create : title:string -> header:string list -> t

val add_row : t -> string list -> unit
(** Append a row (cells as strings). *)

val render : t -> string
(** The table as a string: title, ruled header, rows.  Numeric-looking
    cells are right-aligned, labels left-aligned. *)

val print : t -> unit
(** [print t] writes {!render} to stdout. *)
