//! # prosel-estimators
//!
//! The SQL progress estimators of the paper and its predecessors:
//!
//! * **DNE** — DriverNode estimator (\[6\], eq. (4)): progress = fraction of
//!   driver-node input consumed. Robust to cardinality errors (driver
//!   sizes are known), fails when per-tuple work varies (nested
//!   iterations, batch sorts).
//! * **TGN** — Total GetNext (\[6\], eq. (3)) with bound-clamped E_i:
//!   accounts for work at every node but inherits optimizer estimation
//!   errors.
//! * **LUO** — the bytes-processed / speed model of Luo et al. (\[13\]):
//!   driver input bytes + output/spill bytes, converted to remaining time
//!   via the recent processing speed.
//! * **PMAX / SAFE** — the worst-case estimators of \[5\], built on
//!   worst-case progress bounds ([`refine::bounds`]).
//! * **BATCHDNE / DNESEEK / TGNINT** — the paper's novel special-purpose
//!   estimators (Section 5).
//! * **GetNextOracle / BytesOracle** — the idealized models of Section 6.7
//!   (true totals) used to validate the underlying progress models.
//!
//! [`incremental::IncrementalObs`] is the one curve engine: it builds
//! every estimator's progress curve one snapshot at a time, in O(1)
//! amortized per snapshot. The live monitor feeds it from the engine's
//! tap; offline consumers replay a finished run's trace through it
//! ([`IncrementalObs::with_ctx`], also reachable under its offline name
//! [`PipelineObs`]), so training labels and served curves are the same
//! function of the same counters. [`eval`] scores curves against true
//! (time-fraction) progress.
//!
//! The refinement-bound pass ([`refine::bounds`]) depends only on the plan
//! and one snapshot's counters, so [`ctx::SnapshotCtx`] /
//! [`ctx::TraceCtx`] compute it **once per query per snapshot** and share
//! it across every pipeline of the query ([`IncrementalObs::offer_view`]
//! live, [`IncrementalObs::with_ctx`] on replay).
//!
//! The per-snapshot hot paths — the bound pass and the per-pipeline
//! aggregate walk — run in compiled struct-of-arrays form
//! ([`soa::BoundsKernel`] and the columns behind
//! [`IncrementalObs::offer_view`]), bit-identical to the scalar
//! references and allocation-free per snapshot; see [`soa`].

pub mod ctx;
pub mod eval;
pub mod incremental;
pub mod kinds;
pub mod pipeline_obs;
pub mod refine;
pub mod soa;

pub use ctx::{SnapshotCtx, TraceCtx};
pub use eval::{
    evaluate_pipeline_shared, l1_error, l2_error, query_l1, query_progress_curve, ratio_error,
    EstimatorError,
};
pub use incremental::{IncrementalObs, ONLINE_KINDS};
pub use kinds::EstimatorKind;
pub use pipeline_obs::PipelineObs;
