(* The loop-nest intermediate representation Nona compiles.

   The IR is deliberately small: a parallel region is a single loop whose
   body is a straight-line sequence of instructions over integer virtual
   registers and integer arrays, with phi-nodes carrying values across
   iterations and an optional data-dependent exit ([Break_if]).  This is
   the level at which the paper's compiler algorithms operate: dependence
   analysis, SCC formation, DOANY/PS-DSWP partitioning and multi-threaded
   code generation are all graph algorithms over instructions, and every
   instruction here has exact, executable semantics (see [Interp]) so
   parallelized executions can be checked against the sequential reference.

   Registers obey single assignment per iteration: a register is defined by
   exactly one phi or one body instruction. *)

type reg = int

type operand = Const of int | Reg of reg

type binop =
  | Add
  | Sub
  | Mul
  | Div  (* rounds toward zero; division by zero yields 0 *)
  | Rem
  | Min
  | Max
  | Xor
  | And
  | Or
  | Shl
  | Shr
  | Eq
  | Ne
  | Lt
  | Le

(* A phi node in the loop header: [dst] holds [init] on the first iteration
   and the previous iteration's value of [carry] afterwards. *)
type phi = { pdst : reg; init : operand; carry : reg }

type t =
  | Binop of { dst : reg; op : binop; a : operand; b : operand }
  | Load of { dst : reg; arr : string; idx : operand }
  | Store of { arr : string; idx : operand; v : operand }
  | Work of { amount : operand }
      (* consume [amount] ns of CPU: the opaque expensive computation of a
         real loop body, with a data-dependent cost if [amount] is a reg *)
  | Call of { dst : reg option; fn : string; arg : operand; commutative : bool }
      (* a call to an opaque stateful routine (rand(), hashtable insert,
         output); calls to the same [fn] depend on each other unless marked
         [commutative] (the paper's programmer annotation, Section 4.1) *)
  | Break_if of { cond : operand }
      (* exit the loop (before executing the rest of the iteration) when
         [cond] is non-zero *)

(* Default execution cost of an instruction in ns (Work/Call add their own
   amounts on top of this dispatch cost). *)
let base_cost = function
  | Binop _ -> 2
  | Load _ | Store _ -> 4
  | Work _ -> 1
  | Call _ -> 10
  | Break_if _ -> 1

let defs = function
  | Binop { dst; _ } | Load { dst; _ } -> Some dst
  | Call { dst; _ } -> dst
  | Store _ | Work _ | Break_if _ -> None

let operand_uses = function Const _ -> [] | Reg r -> [ r ]

let uses = function
  | Binop { a; b; _ } -> operand_uses a @ operand_uses b
  | Load { idx; _ } -> operand_uses idx
  | Store { idx; v; _ } -> operand_uses idx @ operand_uses v
  | Work { amount } -> operand_uses amount
  | Call { arg; _ } -> operand_uses arg
  | Break_if { cond } -> operand_uses cond

let eval_binop op a b =
  match op with
  | Add -> a + b
  | Sub -> a - b
  | Mul -> a * b
  | Div -> if b = 0 then 0 else a / b
  | Rem -> if b = 0 then 0 else a mod b
  | Min -> Int.min a b
  | Max -> Int.max a b
  | Xor -> a lxor b
  | And -> a land b
  | Or -> a lor b
  | Shl -> a lsl (b land 62)
  | Shr -> a lsr (b land 62)
  | Eq -> if a = b then 1 else 0
  | Ne -> if a <> b then 1 else 0
  | Lt -> if a < b then 1 else 0
  | Le -> if a <= b then 1 else 0

let binop_to_string = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Rem -> "rem"
  | Min -> "min"
  | Max -> "max"
  | Xor -> "xor"
  | And -> "and"
  | Or -> "or"
  | Shl -> "shl"
  | Shr -> "shr"
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Le -> "le"

let operand_to_string = function Const c -> string_of_int c | Reg r -> Printf.sprintf "r%d" r

let to_string = function
  | Binop { dst; op; a; b } ->
      Printf.sprintf "r%d = %s %s, %s" dst (binop_to_string op) (operand_to_string a)
        (operand_to_string b)
  | Load { dst; arr; idx } -> Printf.sprintf "r%d = load %s[%s]" dst arr (operand_to_string idx)
  | Store { arr; idx; v } ->
      Printf.sprintf "store %s[%s], %s" arr (operand_to_string idx) (operand_to_string v)
  | Work { amount } -> Printf.sprintf "work %s" (operand_to_string amount)
  | Call { dst; fn; arg; commutative } ->
      Printf.sprintf "%s%s(%s)%s"
        (match dst with Some d -> Printf.sprintf "r%d = " d | None -> "")
        fn (operand_to_string arg)
        (if commutative then " @commutative" else "")
  | Break_if { cond } -> Printf.sprintf "break_if %s" (operand_to_string cond)
