(* The installed-observer word (see the .mli). *)

let word = Atomic.make 0
let epoch = Atomic.make 0
let trace = 1
let metrics = 2
let timeline = 4
let hb = 8
let span = 16
let flight = 32
let ledger = 64

(* OCaml 5.1's [Atomic] has no fetch-or; scopes open rarely. *)
let rec set_bit bit on =
  let w = Atomic.get word in
  let w' = if on then w lor bit else w land lnot bit in
  if not (Atomic.compare_and_set word w w') then set_bit bit on

(* Store [v] and return what [cell] held: a live value enters only under
   a set bit, and the bit clears only once a dead value is in. *)
let swap cell bit live v =
  if live v then set_bit bit true;
  let prev = Atomic.exchange cell v in
  if not (live v) then set_bit bit false;
  Atomic.incr epoch;
  prev

let install cell bit ~live v f =
  let prev = swap cell bit live v in
  Fun.protect ~finally:(fun () -> ignore (swap cell bit live prev)) f
