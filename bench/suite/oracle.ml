(* The pure-interpreter oracle the chaos runners check against: final
   guest registers (ESP excluded) and guest memory after a run that
   never translates. Memory is kept whole and compared byte for byte,
   which is cheaper than digesting 8 MiB per checked run. *)

module Bt = Mda_bt
module Machine = Mda_machine

type state = { regs : int64 array; mem : Bytes.t }

let regs (cpu : Machine.Cpu.t) =
  Array.init 8 (fun i -> if i = 4 then 0L else Machine.Cpu.get cpu i)

(* Does [cpu] hold the oracle's final state? *)
let matches st (cpu : Machine.Cpu.t) =
  regs cpu = st.regs && Bytes.equal (Machine.Memory.raw cpu.Machine.Cpu.mem) st.mem

(* The heating threshold lies beyond any loop count, so every block is
   interpreted: no translation, no trap, no mechanism. *)
let run ~mem ~entry =
  let config =
    Bt.Runtime.default_config (Bt.Mechanism.Dynamic_profiling { threshold = 1_000_000 })
  in
  let t = Bt.Runtime.create ~config ~mem () in
  let stats = Bt.Runtime.run t ~entry in
  (stats, { regs = regs t.Bt.Runtime.cpu; mem = Machine.Memory.raw mem })
