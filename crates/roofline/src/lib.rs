//! # pce-roofline
//!
//! An implementation of the Roofline performance model (Williams, Waterman &
//! Patterson, CACM 2009) as used by *"Can Large Language Models Predict
//! Parallel Code Performance?"* (HPDC'25).
//!
//! The Roofline model correlates a kernel's **arithmetic intensity** (AI,
//! operations per byte of memory traffic) with the hardware's peak
//! performance (operations per second) to determine a performance ceiling:
//!
//! ```text
//! attainable(AI) = min(peak_ops, bandwidth * AI)
//! ```
//!
//! Kernels whose AI falls *below* the **balance point** `peak / bandwidth`
//! are **Bandwidth-Bound (BB)**; kernels at or above it are
//! **Compute-Bound (CB)**.
//!
//! This crate provides:
//!
//! * [`HardwareSpec`] — GPU *and* CPU hardware descriptions with
//!   per-operation-class peaks (single-precision FLOP, double-precision
//!   FLOP, integer op), a [`SpecClass`] tag, and a preset database
//!   (RTX 3080 and friends on the GPU side; EPYC 9654, Xeon 8480+ and
//!   Grace on the CPU side), plus [`SpecPair`] for language-aware routing,
//! * [`Roofline`] — a single (peak, bandwidth) roofline with balance-point,
//!   attainable-performance, and classification queries,
//! * [`OpCounts`] / [`KernelObservation`] — profiled operation/byte counters
//!   and the AI values derived from them,
//! * [`classify_joint`] — the paper's three-roofline joint labeling rule
//!   (§2.1: BB iff BB under *all* op-class rooflines, CB otherwise),
//! * [`plot`] — generation of the data series behind the paper's Figure 1.
//!
//! ## Quick example
//!
//! ```
//! use pce_roofline::{HardwareSpec, OpClass, Boundedness};
//!
//! let hw = HardwareSpec::rtx_3080();
//! let roof = hw.roofline(OpClass::Sp);
//! // A SAXPY-like kernel: 2 flops per 12 bytes of traffic.
//! let ai = 2.0 / 12.0;
//! assert_eq!(roof.classify(ai), Boundedness::Bandwidth);
//! assert!(roof.balance_point() > 1.0);
//! ```

#![forbid(unsafe_code)]

pub mod classify;
pub mod hardware;
pub mod model;
pub mod observation;
pub mod plot;

pub use classify::{classify_joint, classify_per_class, Boundedness, JointClassification};
pub use hardware::{HardwareSpec, OpClass, PresetLookupError, SpecClass, SpecPair};
pub use model::Roofline;
pub use observation::{KernelObservation, OpCounts};
