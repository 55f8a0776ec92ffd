(* The Decima metrics registry.

   Aggregated, queryable telemetry for the runtime: monotonic counters,
   gauges and HDR summaries, organized into labeled families the way
   Prometheus models them.  The registry complements the event trace
   (Sink/Trace): traces answer "what happened, in order", the registry
   answers "how much, how fast, how distributed" while a run is in flight.

   Design constraints, mirroring [Trace]:

   - Dependency-free: only the stdlib and the in-tree [Json] printer.
   - A [null] registry is a physical sentinel; emitters guard with

       if Metrics.enabled () then Metrics.inc (handles ()).sends

     so disabled metrics cost one bit test of [Observed.word], and no
     label lists or handle records are ever allocated.
   - Deterministic exposition: families and series are emitted in sorted
     order, and floats print through a fixed format, so two same-seed runs
     produce byte-identical snapshots.
   - Recording is O(1): counters and gauges are single mutable fields,
     a summary observation is one HDR bucket increment.  Updates are
     plain writes — exact on the simulator, whose threads never run in
     parallel, and lossy under contention on native: the moral equivalent
     of the paper's unsynchronized shared-memory counters (Section 4.7). *)

(* ------------------------------------------------------------------ *)
(* Instruments.                                                        *)
(* ------------------------------------------------------------------ *)

type counter = { mutable count : int }

(* A record whose only field is a float is stored flat, so a direct store
   [g.level <- float_of_int n] in any module writes the float unboxed. *)
type gauge = { mutable level : float }

let inc_by c n = c.count <- c.count + n
let inc c = inc_by c 1
let counter_value c = c.count

let set_gauge g v = g.level <- v

(* Converting here keeps the float unboxed: a caller in another module
   passing [float_of_int n] to [set_gauge] boxes it, since calls are not
   inlined across modules compiled with -opaque. *)
let set_gauge_int g n = g.level <- float_of_int n
let add_gauge g v = g.level <- g.level +. v
let gauge_value g = g.level

(* Summaries are HDR histograms (lib/obs/hdr.ml): fixed-precision
   log-linear buckets over integer nanoseconds with a bounded-relative-
   error quantile estimate.  They are the registry's only distribution
   type — a reservoir's percentile jitters with the sampling seed, an HDR
   quantile is a deterministic function of the observations (DESIGN.md
   section 15). *)
type summary = Hdr.t

let observe_summary (s : summary) ns = Hdr.observe s ns
let summary_count (s : summary) = Hdr.count s
let summary_sum (s : summary) = Hdr.sum s

(* Quantiles exported for every summary series: the Prometheus-conventional
   ladder a scrape loop expects for tail latency. *)
let summary_export_quantiles = [ 0.5; 0.9; 0.99; 0.999 ]

(* ------------------------------------------------------------------ *)
(* Families and registries.                                            *)
(* ------------------------------------------------------------------ *)

type kind = Counter_kind | Gauge_kind | Summary_kind

type instrument = Counter_i of counter | Gauge_i of gauge | Summary_i of summary

type family = {
  f_name : string;
  f_help : string;
  f_kind : kind;
  f_label_names : string list;
  f_series : (string list, instrument) Hashtbl.t;  (* keyed by label values *)
}

type t = {
  null_ : bool;
  mu : Mutex.t;
      (* guards structural mutation of the hashtables (family/series
         creation) and snapshot reads.  Instrument *updates* (inc,
         set_gauge, observe_summary) stay unsynchronized: plain OCaml fields
         cannot tear, and lossy counts under contention are the paper's
         own unsynchronized-shared-counter discipline (Section 4.7). *)
  families : (string, family) Hashtbl.t;
}

let create () = { null_ = false; mu = Mutex.create (); families = Hashtbl.create 32 }
let null = { null_ = true; mu = Mutex.create (); families = Hashtbl.create 0 }
let is_null r = r == null

(* ---- The installed registry (Trace's scoped cell). ---- *)

let cell = Atomic.make null

let current () = Atomic.get cell
let enabled () = Atomic.get Observed.word land Observed.metrics <> 0
let with_registry r f = Observed.install cell Observed.metrics ~live:(fun r -> not (is_null r)) r f

(* Memoize instrument handles against the installed registry: the returned
   thunk rebuilds only when a different registry is installed, so hot paths
   pay one physical comparison per event. *)
let cached build =
  let memo = ref None in
  fun () ->
    let reg = Atomic.get cell in
    match !memo with
    | Some (r, v) when r == reg -> v
    | _ ->
        let v = build reg in
        memo := Some (reg, v);
        v

(* ---- Family creation / series lookup. ---- *)

let kind_name = function
  | Counter_kind -> "counter"
  | Gauge_kind -> "gauge"
  | Summary_kind -> "summary"

let make_instrument fam =
  match fam.f_kind with
  | Counter_kind -> Counter_i { count = 0 }
  | Gauge_kind -> Gauge_i { level = 0.0 }
  | Summary_kind -> Summary_i (Hdr.create ())

let family reg ~name ~help ~kind ~label_names =
  match Hashtbl.find_opt reg.families name with
  | Some fam ->
      if fam.f_kind <> kind then
        invalid_arg
          (Printf.sprintf "Metrics: %s registered as %s, requested as %s" name
             (kind_name fam.f_kind) (kind_name kind));
      if List.length fam.f_label_names <> List.length label_names then
        invalid_arg (Printf.sprintf "Metrics: %s label arity mismatch" name);
      fam
  | None ->
      let fam =
        { f_name = name; f_help = help; f_kind = kind; f_label_names = label_names;
          f_series = Hashtbl.create 4 }
      in
      Hashtbl.replace reg.families name fam;
      fam

(* Family/series creation takes the registry mutex: concurrent native
   workers intern handles against the same hashtables, and an unguarded
   [Hashtbl.replace] race can corrupt the table.  Creation is rare (hot
   paths cache handles), so one mutex per registry is plenty. *)
let series reg ~name ~help ~kind labels =
  Mutex.lock reg.mu;
  let i =
    match
      let fam = family reg ~name ~help ~kind ~label_names:(List.map fst labels) in
      let key = List.map snd labels in
      match Hashtbl.find_opt fam.f_series key with
      | Some i -> i
      | None ->
          let i = make_instrument fam in
          Hashtbl.replace fam.f_series key i;
          i
    with
    | i -> i
    | exception e ->
        Mutex.unlock reg.mu;
        raise e
  in
  Mutex.unlock reg.mu;
  i

(* Instruments created against the null registry are free-standing dummies:
   updates mutate garbage that is never exposed, so a stray unguarded
   emitter is harmless rather than fatal. *)

let counter ?(help = "") ?(labels = []) reg name =
  if is_null reg then { count = 0 }
  else
    match series reg ~name ~help ~kind:Counter_kind labels with
    | Counter_i c -> c
    | _ -> assert false

let gauge ?(help = "") ?(labels = []) reg name =
  if is_null reg then { level = 0.0 }
  else
    match series reg ~name ~help ~kind:Gauge_kind labels with
    | Gauge_i g -> g
    | _ -> assert false

let summary ?(help = "") ?(labels = []) reg name =
  if is_null reg then Hdr.create ()
  else
    match series reg ~name ~help ~kind:Summary_kind labels with
    | Summary_i s -> s
    | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Snapshots.                                                          *)
(* ------------------------------------------------------------------ *)

type value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of { sum : float; count : int }  (* never produced; see the .mli *)
  | Summary_v of { quantiles : (float * float) list; sum : float; count : int }

type sample = { labels : (string * string) list; value : value }
type fam_snapshot = { name : string; help : string; skind : kind; samples : sample list }

let snapshot_instrument = function
  | Counter_i c -> Counter_v c.count
  | Gauge_i g -> Gauge_v g.level
  | Summary_i s ->
      Summary_v
        {
          quantiles =
            List.map
              (fun q -> (q, float_of_int (Hdr.quantile s q)))
              summary_export_quantiles;
          sum = float_of_int (Hdr.sum s);
          count = Hdr.count s;
        }

(* Families sorted by name, series sorted by label values: exposition order
   is a function of the recorded data alone, never of hash-table layout.
   Takes the registry mutex so a concurrent handle creation cannot be
   observed mid-rehash. *)
let snapshot reg =
  Mutex.lock reg.mu;
  let fams = Hashtbl.fold (fun _ fam acc -> fam :: acc) reg.families [] in
  let snap =
    fams
  |> List.sort (fun a b -> compare a.f_name b.f_name)
  |> List.map (fun fam ->
         let samples =
           Hashtbl.fold (fun key i acc -> (key, i) :: acc) fam.f_series []
           |> List.sort (fun (a, _) (b, _) -> compare a b)
           |> List.map (fun (key, i) ->
                  { labels = List.combine fam.f_label_names key;
                    value = snapshot_instrument i })
         in
         { name = fam.f_name; help = fam.f_help; skind = fam.f_kind; samples })
  in
  Mutex.unlock reg.mu;
  snap

(* ------------------------------------------------------------------ *)
(* Exposition: Prometheus text format 0.0.4.                           *)
(* ------------------------------------------------------------------ *)

(* Fixed float format: integral values render as integers (counters and
   quantile values read naturally), everything else via %.12g.  Byte-stable
   across runs by construction. *)
let fmt_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.12g" v

let escape_label_value s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let label_block labels =
  match labels with
  | [] -> ""
  | _ ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label_value v)) labels)
      ^ "}"

let to_prometheus reg =
  let buf = Buffer.create 4096 in
  List.iter
    (fun fam ->
      if fam.help <> "" then
        Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" fam.name fam.help);
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" fam.name (kind_name fam.skind));
      List.iter
        (fun { labels; value } ->
          match value with
          | Counter_v c ->
              Buffer.add_string buf
                (Printf.sprintf "%s%s %d\n" fam.name (label_block labels) c)
          | Gauge_v g ->
              Buffer.add_string buf
                (Printf.sprintf "%s%s %s\n" fam.name (label_block labels) (fmt_float g))
          | Histogram_v _ -> ()
          | Summary_v { quantiles; sum; count } ->
              (* Prometheus summary convention: one series per quantile,
                 then _sum and _count. *)
              List.iter
                (fun (q, v) ->
                  let labels = labels @ [ ("quantile", fmt_float q) ] in
                  Buffer.add_string buf
                    (Printf.sprintf "%s%s %s\n" fam.name (label_block labels)
                       (fmt_float v)))
                quantiles;
              Buffer.add_string buf
                (Printf.sprintf "%s_sum%s %s\n" fam.name (label_block labels) (fmt_float sum));
              Buffer.add_string buf
                (Printf.sprintf "%s_count%s %d\n" fam.name (label_block labels) count))
        fam.samples)
    (snapshot reg);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Exposition: self-contained JSON snapshot.                           *)
(* ------------------------------------------------------------------ *)

let value_to_json = function
  | Counter_v c -> Json.Int c
  | Gauge_v g -> Json.Float g
  | Histogram_v _ -> Json.Null
  | Summary_v { quantiles; sum; count } ->
      Json.Obj
        [ ("quantiles",
           Json.Obj (List.map (fun (q, v) -> (fmt_float q, Json.Float v)) quantiles));
          ("sum", Json.Float sum); ("count", Json.Int count) ]

let to_json reg =
  Json.Obj
    [ ("families",
       Json.List
         (List.map
            (fun fam ->
              Json.Obj
                [ ("name", Json.Str fam.name); ("kind", Json.Str (kind_name fam.skind));
                  ("help", Json.Str fam.help);
                  ("series",
                   Json.List
                     (List.map
                        (fun { labels; value } ->
                          Json.Obj
                            [ ("labels",
                               Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) labels));
                              ("value", value_to_json value) ])
                        fam.samples)) ])
            (snapshot reg))) ]

let to_json_string reg = Json.to_string (to_json reg)
