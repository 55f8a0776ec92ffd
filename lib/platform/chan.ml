(* Channel dispatch over the two backends.  The sim arm keeps the
   pre-abstraction Chan untouched (and therefore bit-identical); the
   native arm is the monitor implementation in Parcae_native.Chan. *)

module Sc = Parcae_sim.Chan
module Nc = Parcae_native.Chan

type 'a t = S of 'a Sc.t | N of 'a Nc.t

let create ?capacity eng name =
  match Engine.sim_engine eng with
  | Some se -> S (Sc.create ?capacity se name)
  | None -> (
      match Engine.native_engine eng with
      | Some ne -> N (Nc.create ?capacity ne name)
      | None -> assert false)

let length = function S c -> Sc.length c | N c -> Nc.length c
let total_sent = function S c -> Sc.total_sent c | N c -> Nc.total_sent c
let send ch v = match ch with S c -> Sc.send c v | N c -> Nc.send c v
let recv = function S c -> Sc.recv c | N c -> Nc.recv c
let force_send ch v = match ch with S c -> Sc.force_send c v | N c -> Nc.force_send c v
let send_batch ch vs = match ch with S c -> Sc.send_batch c vs | N c -> Nc.send_batch c vs
let recv_batch ?max = function S c -> Sc.recv_batch ?max c | N c -> Nc.recv_batch ?max c
let filter ch keep = match ch with S c -> Sc.filter c keep | N c -> Nc.filter c keep
let drain = function S c -> Sc.drain c | N c -> Nc.drain c
