//! Communication-efficient k-means pipelines — the paper's core
//! contribution (Algorithms 1–4) together with the state-of-the-art
//! baselines it compares against (FSS, BKLW) and the quantized variants of
//! all of them (Section 6).
//!
//! # The pipelines
//!
//! The paper's eight pipelines are one table of stage lists
//! ([`pipelines::named`], with the `--pipeline` names in
//! [`pipelines::NAMES`]), each also a legend type that derefs to its
//! [`engine::StagePipeline`].
//!
//! Single data source (§4):
//!
//! | Pipeline | Paper | Summary sent to the server |
//! |---|---|---|
//! | [`pipelines::NoReduction`] | "NR" baseline | the raw dataset |
//! | [`pipelines::Fss`] | FSS \[11\] | PCA-subspace coreset: coordinates **+ basis** (the `O(kd/ε²)` cost of Theorem 4.1) |
//! | [`pipelines::JlFss`] | **Algorithm 1** (JL+FSS) | coreset of the JL-projected data, coordinates + in-projection basis — `O(k·log n/ε⁴)` |
//! | [`pipelines::FssJl`] | **Algorithm 2** (FSS+JL) | JL-projected coreset points, no basis — `Õ(k³/ε⁶)` |
//! | [`pipelines::JlFssJl`] | **Algorithm 3** (JL+FSS+JL) | doubly-projected coreset points — `Õ(k³/ε⁶)` at near-linear complexity |
//!
//! Multiple data sources (§5):
//!
//! | Pipeline | Paper | Per-source uplink |
//! |---|---|---|
//! | [`distributed::Bklw`] | BKLW \[27\] | local SVD summary (`O(kd/ε²)`) + disSS samples |
//! | [`distributed::JlBklw`] | **Algorithm 4** (JL+BKLW) | same in JL space (`O(k·log n/ε⁴)`) |
//! | [`distributed::BklwJl`] | the §5.2 variant (BKLW+JL) | BKLW's summaries, JL-projected samples |
//!
//! Arbitrary DR/CR/QT compositions — points in the §4 "order matters"
//! space the paper never evaluated — are other stage lists
//! (`StagePipeline::from_names("jl,fss,qt,jl", params)`).
//!
//! # One execution path
//!
//! Every run is the server-driven protocol: the [`driver`] holds the
//! plan and emits command rounds, one [`executor::SourceExecutor`] per
//! data source holds only its shard and answers them, and every JL
//! projection is regenerated from a seed shared between sources and
//! server — never transmitted — exactly as the paper prescribes (§3.2
//! Remark). The in-process entry points (`StagePipeline::run`,
//! `run_shards`, `run_cached`, `run_channel`) run the executors on
//! threads over in-process channels; `ekm serve`/`ekm source` run the
//! same driver and executors across processes over TCP. A single data
//! source is simply a run with one executor. Every data-plane payload
//! is charged its *actual encoded bits* to the run's
//! [`ekm_net::NetworkStats`], which the library entry points add into
//! the caller's [`ekm_net::Network`] ledger.

//! # Example
//!
//! ```
//! use ekm_core::params::SummaryParams;
//! use ekm_core::pipelines::JlFss;
//! use ekm_net::Network;
//! use ekm_linalg::Matrix;
//!
//! let data = Matrix::from_fn(2000, 30, |i, j| {
//!     ((i % 4) as f64) * 3.0 + ((i * 31 + j * 17) % 11) as f64 * 0.05
//! });
//! let params = SummaryParams::practical(2, data.rows(), data.cols())
//!     .with_coreset_size(100)
//!     .with_seed(7);
//!
//! let mut net = Network::new(1);
//! let out = JlFss::new(params).run(&data, &mut net).unwrap();
//! assert_eq!(out.centers.shape(), (2, 30));
//! // Far fewer bits than shipping the raw data:
//! let raw_bits = 2000 * 30 * 64;
//! assert!(out.uplink_bits < raw_bits / 4);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
mod complexity;
pub mod distributed;
pub mod driver;
pub mod engine;
mod error;
pub mod evaluation;
pub mod executor;
pub mod health;
pub mod journal;
pub mod output;
pub mod params;
pub mod pipelines;
pub mod projection;
pub mod server;
pub mod stage;

pub use cache::StageCache;
pub use driver::run_driver;
pub use engine::StagePipeline;
pub use error::CoreError;
pub use executor::{SourceExecutor, SourceRunReport};
pub use health::{Health, HealthMachine, RecoveryAction};
pub use journal::JournalingTransport;
pub use output::{Degradation, Recovery, RunOutput};
pub use params::SummaryParams;
pub use stage::Stage;

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, CoreError>;
