(** Names that end in a lane index, built without a [Printf] call per
    name: format the prefix once, then {!append} each lane. *)

val append : string -> int -> string
(** [append prefix i] is [Printf.sprintf "%s%d" prefix i], byte for byte.
    The digits of indices below 64 come from a table formatted once, so
    the call allocates only the result string. *)
