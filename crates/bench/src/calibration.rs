//! Sequential CPU cost constant.
//!
//! The GPU side's calibration lives in [`simgpu::Calibration`], and the
//! host-fallback cost of the *CUDA generic* variant in the default
//! [`simgpu::ExecOptions::host_ns_per_op`]. The constant here models the
//! sequential CPU:
//!
//! * [`SEQ_CPU_NS_PER_OP`] — sequential execution of compiler-generated C
//!   (the paper's *SAC-Seq* bars): one abstract flat-program operation (a
//!   node of the lowered data-parallel code) costs well under a nanosecond
//!   on the paper's 2.8 GHz i7-930, because several abstract ops map to one
//!   machine instruction stream. Fit so that SAC-Seq horizontal ≈ 4.4 s for
//!   300 HD frames (Figure 9's tallest bars).

/// Modelled nanoseconds per abstract flat-program op for SAC-Seq runs.
pub const SEQ_CPU_NS_PER_OP: f64 = 0.055;
