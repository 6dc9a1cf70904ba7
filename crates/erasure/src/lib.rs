//! Systematic MDS erasure codes with incremental updates.
//!
//! This crate implements the erasure-code layer of the AJX reproduction
//! (*Using Erasure Codes Efficiently for Storage in a Distributed System*,
//! DSN 2005):
//!
//! * [`ReedSolomon`] — k-of-n systematic Reed-Solomon codes over GF(2⁸)
//!   with full encode, decode from *any* k blocks, and the **delta updates**
//!   (`α_ji · (v − w)`) that let the protocol update redundancy with
//!   commutative adds and no locks (paper Fig. 3). It is one instantiation
//!   of [`SystematicCode<F>`], the single byte-streaming code engine,
//!   generic over the [`ajx_gf::KernelField`] that supplies coefficients
//!   and block kernels.
//! * [`WideReedSolomon`] — the other instantiation, over GF(2¹⁶), for
//!   stripes past 256 blocks: the same methods (allocation-free
//!   `encode_into`, reusable [`WideDecodePlan`]s memoized by
//!   [`PlanCache::plan_wide`]) on the wide tier of the same SIMD kernels.
//!   Blocks are little-endian `u16` words, so lengths must be even.
//! * [`LinearCode`] — the same machinery over any field, capturing the class
//!   of codes the protocol supports ("linear erasure codes ... where
//!   redundant blocks are updated with commutative operations", §1);
//!   [`toy_2_of_4`] instantiates the paper's §3.3 `(a, b, a+b, a−b)` example.
//! * [`Lrc`] / [`CodeFamily`] — a pyramid Local Reconstruction Code tier:
//!   data blocks split into local groups with one local parity each plus
//!   global parities, so a single lost block is repaired from its
//!   ~`k/g`-block group instead of `k` blocks ([`CodeFamily::repair_plan`]
//!   picks the cheapest viable repair set for either family).
//! * [`StripeLayout`] — the §3.11 rotated placement of stripes over storage
//!   nodes that spreads parity load and keeps sequential I/O on distinct
//!   nodes.
//! * [`Matrix`] — the small dense linear algebra (Vandermonde, Gauss-Jordan)
//!   behind the code constructions.
//!
//! # Quickstart
//!
//! ```
//! use ajx_erasure::ReedSolomon;
//!
//! # fn main() -> Result<(), ajx_erasure::CodeError> {
//! // A highly-efficient code in the paper's sense: large k, small n − k.
//! let rs = ReedSolomon::new(10, 12)?;
//! let data: Vec<Vec<u8>> = (0..10).map(|i| vec![i as u8; 1024]).collect();
//! let stripe = rs.encode_stripe(&data)?;
//!
//! // Any 10 of the 12 blocks recover everything:
//! let shares: Vec<(usize, &[u8])> =
//!     (2..12).map(|i| (i, &stripe[i][..])).collect();
//! assert_eq!(rs.decode(&shares)?, data);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod code;
mod error;
mod family;
mod layout;
mod linear;
mod lrc;
mod matrix;

pub use cache::PlanCache;
pub use code::{
    DecodePlan, ReedSolomon, SystematicCode, WideDecodePlan, WideReedSolomon, MAX_N, MAX_N_WIDE,
};
pub use error::CodeError;
pub use family::{CodeFamily, FamilyKey, RepairPlan};
pub use layout::{NodeIndex, Placement, Role, StripeLayout};
pub use linear::{toy_2_of_4, LinearCode};
pub use lrc::Lrc;
pub use matrix::Matrix;
