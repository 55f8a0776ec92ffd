module Sl = Parcae_sim.Lock
module Nl = Parcae_native.Lock

type t = S of Sl.t | N of Nl.t

let create eng name =
  match Engine.sim_engine eng with
  | Some se -> S (Sl.create se name)
  | None -> (
      match Engine.native_engine eng with
      | Some ne -> N (Nl.create ne name)
      | None -> assert false)

let with_lock t f = match t with S l -> Sl.with_lock l f | N l -> Nl.with_lock l f
