//! # edge-kmeans
//!
//! A reproduction of **"Communication-efficient k-Means for Edge-based
//! Machine Learning"** (Lu, He, Wang, Liu, Mahdavi, Narayanan, Chan,
//! Pasteris; ICDCS 2020 / arXiv:2102.04282): computing provably accurate
//! k-means centers for a large, high-dimensional dataset held by edge
//! devices, by sending the server a *small summary* built from a carefully
//! ordered composition of
//!
//! * **DR** — data-oblivious Johnson–Lindenstrauss projection (seeded,
//!   never transmitted),
//! * **CR** — sensitivity-sampling coresets (FSS),
//! * **QT** — rounding-based quantization,
//!
//! and solving k-means on the summary at the server.
//!
//! This facade re-exports the full workspace API:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`linalg`] | dense matrices, eigen/SVD, Cholesky, pseudo-inverse |
//! | [`clustering`] | weighted Lloyd/k-means++, bicriteria approximation |
//! | [`sketch`] | JL projections, PCA, target-dimension formulas |
//! | [`coreset`] | ε-coresets, sensitivity sampling, FSS |
//! | [`quant`] | the rounding quantizer Γ and the §6.3 optimizer |
//! | [`net`] | bit-exact edge network: wire format, the server-driven protocol, in-process and TCP backends |
//! | [`data`] | MNIST-like / NeurIPS-like workloads, normalization |
//! | [`core`] | Algorithms 1–4, FSS, BKLW, and the +QT variants |
//!
//! # Quickstart
//!
//! ```
//! use edge_kmeans::prelude::*;
//!
//! // An edge device holds a dataset it cannot afford to upload raw.
//! let raw = edge_kmeans::data::synth::GaussianMixture::new(2_000, 64, 2)
//!     .with_separation(4.0)
//!     .with_seed(1)
//!     .generate()
//!     .unwrap()
//!     .points;
//! let (dataset, _) = edge_kmeans::data::normalize::normalize_paper(&raw);
//!
//! // Algorithm 3 (JL+FSS+JL): near-linear device work, tiny summary.
//! let params = SummaryParams::practical(2, dataset.rows(), dataset.cols()).with_seed(42);
//! let mut net = Network::new(1);
//! let out = JlFssJl::new(params).run(&dataset, &mut net).unwrap();
//!
//! // Centers live in the original 64-dimensional space.
//! assert_eq!(out.centers.shape(), (2, 64));
//! // The summary is a small fraction of the raw data.
//! assert!(out.normalized_comm(dataset.rows(), dataset.cols()) < 0.5);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use ekm_clustering as clustering;
pub use ekm_core as core;
pub use ekm_coreset as coreset;
pub use ekm_data as data;
pub use ekm_linalg as linalg;
pub use ekm_net as net;
pub use ekm_quant as quant;
pub use ekm_sketch as sketch;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use ekm_clustering::kmeans::KMeans;
    pub use ekm_core::evaluation;
    pub use ekm_core::params::SummaryParams;
    pub use ekm_core::pipelines::{Bklw, BklwJl, Fss, FssJl, JlBklw, JlFss, JlFssJl, NoReduction};
    pub use ekm_core::{
        RunOutput, SourceExecutor, SourceRunReport, Stage, StageCache, StagePipeline,
    };
    pub use ekm_coreset::{Coreset, FssBuilder};
    pub use ekm_linalg::Matrix;
    pub use ekm_net::wire::Precision;
    pub use ekm_net::Network;
    pub use ekm_quant::{QtOptimizer, RoundingQuantizer};
    pub use ekm_sketch::{JlKind, JlProjection, Pca};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        use crate::prelude::*;
        let m = Matrix::identity(2);
        assert_eq!(m.rows(), 2);
        let _ = KMeans::new(2);
        let _ = Network::new(1);
        let _ = RoundingQuantizer::new(8).unwrap();
        let _ = JlProjection::generate(JlKind::Gaussian, 4, 2, 0);
    }
}
