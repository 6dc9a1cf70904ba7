//! Finite-field arithmetic for erasure-coded storage.
//!
//! This crate provides the arithmetic substrate used by the Reed-Solomon
//! codes in `ajx-erasure`: the field **GF(2⁸)** (the field the paper's
//! implementation uses for its "hand optimized code for field arithmetic",
//! §5.1), plus the small prime field **GF(257)** used to mirror the paper's
//! pedagogical 2-of-4 example `(a, b, a+b, a−b)` from §3.3 (which requires a
//! field of characteristic ≠ 2), and **GF(2¹⁶)** ([`Gf65536`]) for codes
//! wider than 256 nodes.
//!
//! Three levels of API are exposed:
//!
//! * [`Gf256`] / [`Gf257`] — scalar field elements implementing the [`Field`]
//!   trait (full operator overloads, inverses, exponentiation).
//! * [`slice`](mod@slice) — bulk kernels over byte slices (`add_assign`, `mul_assign`,
//!   `mul_add_assign`): these are the hot path of every encode, delta-update
//!   and decode. They use a per-call 256-entry product table, the same
//!   optimization the paper credits for running "10-20 times faster than
//!   textbook implementations" (§6.1).
//! * [`textbook`] — a deliberately naive shift-and-add implementation kept as
//!   the baseline for the Fig. 8(a) speedup claim and as a correctness oracle
//!   in tests.
//!
//! # Example
//!
//! ```
//! use ajx_gf::{Field, Gf256};
//!
//! let a = Gf256::new(0x53);
//! let b = Gf256::new(0xCA);
//! // Addition is XOR in characteristic 2, so every element is its own negation.
//! assert_eq!(a + b, b + a);
//! assert_eq!(a - b, a + b);
//! // Multiplication distributes over addition.
//! let c = Gf256::new(7);
//! assert_eq!(c * (a + b), c * a + c * b);
//! // Every nonzero element has an inverse.
//! let inv = b.inv().expect("b is nonzero");
//! assert_eq!(b * inv, Gf256::ONE);
//! ```

// `deny` rather than `forbid`: the SIMD kernels in `kernel::x86` carry a
// scoped `#![allow(unsafe_code)]`; every other module stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod field;
mod gf256;
mod gf257;
mod gf65536;
pub mod kernel;
pub mod slice;
pub mod textbook;

pub use field::{Field, KernelField};
pub use gf256::Gf256;
pub use gf257::Gf257;
pub use gf65536::Gf65536;
