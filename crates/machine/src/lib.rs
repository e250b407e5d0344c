//! SimX64: the simulated x86-64-flavoured target ISA.
//!
//! The MCFI paper instruments real x86 machine code. This crate is the
//! from-scratch substitute: a register machine with a **variable-length
//! byte encoding** (so that mid-instruction ROP gadgets exist, §8.3), an
//! encoder/decoder pair (the decoder doubles as the verifier's
//! disassembler), and a cycle cost model used to measure the execution
//! overhead of instrumentation (Figs. 5/6).
//!
//! The instruction set contains direct analogues of everything the MCFI
//! check sequence needs (paper Fig. 4):
//!
//! | paper (x86-64)              | SimX64                      |
//! |-----------------------------|-----------------------------|
//! | `popq %rcx`                 | `Pop rcx`                   |
//! | `movl %ecx, %ecx`           | `Trunc32 rcx`               |
//! | `movl %gs:IDX, %edi`        | `BaryLoad rdi, IDX`         |
//! | `movl %gs:(%rcx), %esi`     | `TaryLoad rsi, rcx`         |
//! | `cmpl %edi, %esi`           | `Cmp rdi, rsi`              |
//! | `testb $1, %sil`            | `TestImm rsi, 1`            |
//! | `cmpw %di, %si`             | `Cmp16 rdi, rsi`            |
//! | `jmpq *%rcx`                | `JmpReg rcx`                |
//! | `hlt`                       | `Hlt`                       |
//!
//! Memory-write sandboxing (§5.1) masks the effective address to the low
//! 4 GiB with `AndImm reg, 0xffff_ffff` immediately before every store,
//! which the verifier checks statically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cost;
mod encode;
mod inst;
mod reg;

pub use cost::{cost_of, CYCLES_ALU, CYCLES_BRANCH, CYCLES_INDIRECT, CYCLES_LOAD, CYCLES_STORE};
pub use encode::{decode, decode_all, encode, encode_into, DecodeError};
pub use inst::{AluOp, Cond, FaluOp, Inst};
pub use reg::Reg;

/// The sandbox mask: memory writes are confined to `[0, 4 GiB)` on the
/// simulated 64-bit machine, exactly as in the paper's x86-64 design.
pub const SANDBOX_MASK: u64 = 0xffff_ffff;

/// Indirect-branch targets must be aligned to this many bytes so the Tary
/// table needs one entry per aligned address (§5.1).
pub const TARGET_ALIGN: u64 = 4;
