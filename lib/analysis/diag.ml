(* Structured diagnostics: the one finding type of every report.

   Every finding carries a stable code so tests, CI greps, and users can
   key on it:

     P0xx  parse/frontend errors (emitted by the CLI around Parse_error)
     V1xx  DOANY legality violations
     V2xx  DOACROSS legality violations
     V3xx  PS-DSWP legality violations
     V0xx  PDG integrity violations (scheme-independent)
     N4xx  scheme-inhibitor explanations (informational)
     W6xx  lint warnings
     S7xx  race-sanitizer soundness violations, G7xx its precision gaps
     D1xx  doctor findings, L1xx latency findings

   Rendering is GCC-style one-per-line text ("file:line: severity[CODE]:
   message") or a Json.t object per finding for tooling.  Every command
   that reports findings (check, sanitize, doctor, latency) uses this
   type, [render] and [to_json]. *)

open Parcae_ir
module Json = Parcae_obs.Json

type severity = Error | Warning | Info

type t = {
  code : string;  (* stable, e.g. "V302" *)
  severity : severity;
  loc : Loop.loc option;
  message : string;
}

let make ?loc ~code ~severity fmt =
  Printf.ksprintf (fun message -> { code; severity; loc; message }) fmt

let error ?loc code fmt = make ?loc ~code ~severity:Error fmt
let warning ?loc code fmt = make ?loc ~code ~severity:Warning fmt
let info ?loc code fmt = make ?loc ~code ~severity:Info fmt

let severity_to_string = function Error -> "error" | Warning -> "warning" | Info -> "info"

let is_error d = d.severity = Error

let count_errors ds = List.length (List.filter is_error ds)

let to_string d =
  let prefix = match d.loc with Some l -> Loop.loc_to_string l ^ ": " | None -> "" in
  Printf.sprintf "%s%s[%s]: %s" prefix (severity_to_string d.severity) d.code d.message

let to_json d =
  Json.Obj
    ([
       ("code", Json.Str d.code);
       ("severity", Json.Str (severity_to_string d.severity));
       ("message", Json.Str d.message);
     ]
    @
    match d.loc with
    | Some l -> [ ("file", Json.Str l.Loop.loc_file); ("line", Json.Int l.Loop.loc_line) ]
    | None -> [])

let render ds =
  let warnings = List.length (List.filter (fun d -> d.severity = Warning) ds) in
  String.concat "" (List.map (fun d -> to_string d ^ "\n") ds)
  ^ Printf.sprintf "%d error(s), %d warning(s)\n" (count_errors ds) warnings

(* Errors first, then warnings, then infos; stable within a class. *)
let sort ds =
  let rank d = match d.severity with Error -> 0 | Warning -> 1 | Info -> 2 in
  List.stable_sort (fun a b -> compare (rank a) (rank b)) ds
