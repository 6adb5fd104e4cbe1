//! `ie-serve` — the open-loop serving layer over the multi-exit inference
//! engine.
//!
//! The paper's deployment answers one event at a time on a harvesting
//! device; this crate answers a *stream* of requests on a server, reusing
//! the same machinery end to end:
//!
//! * worker threads each own a warmed [`ie_nn::BatchPlan`] (f32 or
//!   quantized), taken from the caller's plan pool — the handoff that keeps
//!   serving allocation-free after startup;
//! * a **dynamic batching window** ([`WindowConfig`]) closes each batch at
//!   size `N` or deadline `T`, whichever comes first — one close rule,
//!   planned on the virtual clock by [`plan_overload`] and applied to the
//!   wall clock by the live server;
//! * the runtime exit policies act as **admission control**
//!   ([`ie_runtime::LatencyAdmission`]): per request, the deepest exit whose
//!   predicted latency fits the request's budget — or load shedding when
//!   none does — exactly the paper's energy rule with latency as the
//!   resource;
//! * responses carry only deterministic content, so a fixed request stream
//!   produces **byte-identical responses** for any worker count, batch
//!   composition and repeated run (see [`Server::replay`]);
//! * an **overload layer** ([`OverloadConfig`]) bounds the queue and sheds
//!   or *degrades* under pressure — the multi-exit network doubling as the
//!   load-shedding actuator — while one **worker supervision** path, shared
//!   by both modes, catches panics, recycles plans and retries a lost batch
//!   once;
//! * a seeded [`ChaosPlan`] injects panics, stalls and arrival bursts to
//!   prove it, with byte-identical replay outcomes per seed.
//!
//! [`Server::replay`] serves a recorded stream on a virtual clock (tests,
//! benches); [`Server::run_live`] runs real worker threads against the wall
//! clock behind a [`LiveHandle`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chaos;
mod error;
mod overload;
mod report;
mod request;
mod server;
mod window;

pub use chaos::{silence_chaos_panics, ChaosPanic, ChaosPlan};
pub use error::ServeError;
pub use overload::{
    plan_overload, pressure_exit_cap, AdmitOutcome, OverloadConfig, OverloadPlan, PlannedBatch,
    ShedPolicy, ShedReason,
};
pub use report::{percentile, ServeReport};
pub use request::{Request, Response, Verdict};
pub use server::{serve_threads, LiveHandle, ServeConfig, ServeOutcome, Server};
pub use window::WindowConfig;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ServeError>;
