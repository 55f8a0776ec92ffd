module Sl = Parcae_sim.Lock
module Nl = Parcae_native.Lock

type t = S of Sl.t | N of Nl.t

let create ?op_cost eng name =
  match Engine.native_engine eng with
  | None -> S (Sl.create ?op_cost name)
  | Some ne -> N (Nl.create ne name)

let with_lock t f = match t with S l -> Sl.with_lock l f | N l -> Nl.with_lock l f
