(* Names that end in a lane index ("region/task.3", "e0.1.2", "ring4.5").

   Runtimes name one thread per lane and one channel per pair of lanes,
   thousands per region launch, so a [Printf.sprintf] per name dominates
   their creation.  The caller formats each name's prefix once; [append]
   adds the decimal index with one concatenation, reading the digits of
   the small indices every run uses from a table formatted once. *)

let digits = Array.init 64 string_of_int

let append prefix i =
  prefix ^ if i >= 0 && i < Array.length digits then digits.(i) else string_of_int i
