//! The composable stage vocabulary: the plan every run executes.
//!
//! The paper's central observation is that a summary is a *composition*:
//! dimensionality reduction (DR), cardinality reduction (CR), and
//! quantization (QT) can be stacked in any order, and the order
//! determines both communication cost and accuracy (§4 "order matters").
//! Algorithms 1–4 are four points in that composition space; a [`Stage`]
//! list names an arbitrary point, and
//! [`StagePipeline`](crate::StagePipeline) carries it to the driver and
//! the source executors, which resolve every stage with the helpers
//! here and so agree on every dimension and seed stream without
//! communicating.
//!
//! | Token | Stage | Effect on the summary state |
//! |---|---|---|
//! | `jl` | [`Stage::Dr`] | seeded JL projection of the working points (zero communication) |
//! | `fss` | [`Stage::Cr`] | FSS coreset: points → (coordinates, weights, Δ) + a basis to transmit |
//! | `stream` | [`Stage::Stream`] | merge-and-reduce streaming coreset per source (each source summarizes while collecting) |
//! | `qt` | [`Stage::Qt`] | arms the rounding quantizer for subsequent coreset-point transmissions |
//! | `dispca` | [`Stage::DisPca`] | distributed PCA round: local SVD summaries up, global basis down |
//! | `disss` | [`Stage::DisSs`] | distributed sensitivity sampling: the summary moves to the server |

use crate::params::SummaryParams;
use crate::pipelines::seeds;
use crate::{CoreError, Result};
use ekm_quant::RoundingQuantizer;

/// Default significand bits when a `qt` stage is requested without an
/// explicit width (`qt:<s>`) and the parameters carry no quantizer.
pub const DEFAULT_QT_BITS: u32 = 10;

/// Configuration of a JL (DR) stage.
///
/// The target dimension defaults to the parameters' pre-CR formula for a
/// leading projection and the post-CR formula otherwise (matching
/// Algorithms 1–3); `dim` pins it explicitly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JlStage {
    /// Explicit target dimension (overrides the positional default).
    pub dim: Option<usize>,
}

/// Configuration of an FSS (CR) stage.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FssStage {
    /// Explicit coreset size (defaults to `SummaryParams::coreset_size`).
    pub sample_size: Option<usize>,
    /// Explicit PCA/intrinsic dimension (defaults to the clamped
    /// `SummaryParams::pca_dim`).
    pub pca_dim: Option<usize>,
}

/// Configuration of a streaming (merge-and-reduce) CR stage.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamStage {
    /// Explicit leaf-buffer size (defaults to
    /// `SummaryParams::stream_leaf_size`).
    pub leaf_size: Option<usize>,
    /// Explicit *global* sample budget, split evenly across the data
    /// sources (defaults to `SummaryParams::coreset_size`).
    pub sample_size: Option<usize>,
}

/// Configuration of a QT stage.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QuantStage {
    /// Explicit quantizer (defaults to the parameters' quantizer, then to
    /// [`DEFAULT_QT_BITS`]).
    pub quantizer: Option<RoundingQuantizer>,
}

/// Configuration of a disPCA stage.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DisPcaStage {
    /// Explicit summary rank `t1 = t2` (defaults to the clamped
    /// `SummaryParams::pca_dim`).
    pub rank: Option<usize>,
}

/// Configuration of a disSS stage.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DisSsStage {
    /// Explicit global sample budget (defaults to
    /// `SummaryParams::coreset_size`).
    pub sample_size: Option<usize>,
}

/// One step of a summary pipeline.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Stage {
    /// Dimensionality reduction: a seeded, data-oblivious JL projection.
    Dr(JlStage),
    /// Cardinality reduction: an FSS coreset (single data source).
    Cr(FssStage),
    /// Streaming cardinality reduction: every data source feeds its shard
    /// through a merge-and-reduce [`ekm_coreset::StreamingCoreset`] and
    /// finalizes a bounded weighted summary — the edge device summarizes
    /// *while collecting* instead of materializing the full shard.
    Stream(StreamStage),
    /// Quantization: arm the rounding quantizer Γ for subsequent
    /// coreset-point transmissions.
    Qt(QuantStage),
    /// Distributed PCA (\[11\]/\[35\]): one interactive round over all
    /// data sources.
    DisPca(DisPcaStage),
    /// Distributed sensitivity sampling (\[4\]): after this stage the
    /// summary lives at the server.
    DisSs(DisSsStage),
}

impl Stage {
    /// A JL stage with positional-default dimensions.
    pub fn jl() -> Stage {
        Stage::Dr(JlStage::default())
    }

    /// An FSS stage with parameter-default sizes.
    pub fn fss() -> Stage {
        Stage::Cr(FssStage::default())
    }

    /// A streaming merge-and-reduce stage with parameter-default sizes.
    pub fn stream() -> Stage {
        Stage::Stream(StreamStage::default())
    }

    /// A streaming stage with an explicit leaf-buffer size.
    pub fn stream_leaf(leaf_size: usize) -> Stage {
        Stage::Stream(StreamStage {
            leaf_size: Some(leaf_size.max(1)),
            sample_size: None,
        })
    }

    /// A QT stage using the parameters' quantizer (or the default width).
    pub fn qt() -> Stage {
        Stage::Qt(QuantStage::default())
    }

    /// A QT stage with an explicit significand width.
    ///
    /// # Errors
    ///
    /// Propagates invalid widths from [`RoundingQuantizer::new`].
    pub fn qt_bits(s: u32) -> Result<Stage> {
        Ok(Stage::Qt(QuantStage {
            quantizer: Some(RoundingQuantizer::new(s).map_err(CoreError::Quant)?),
        }))
    }

    /// A disPCA stage with parameter-default rank.
    pub fn dispca() -> Stage {
        Stage::DisPca(DisPcaStage::default())
    }

    /// A disSS stage with parameter-default budget.
    pub fn disss() -> Stage {
        Stage::DisSs(DisSsStage::default())
    }

    /// The display token used in pipeline names ("JL+FSS+QT").
    pub fn token(&self) -> &'static str {
        match self {
            Stage::Dr(_) => "JL",
            Stage::Cr(_) => "FSS",
            Stage::Stream(_) => "STREAM",
            Stage::Qt(_) => "QT",
            Stage::DisPca(_) => "disPCA",
            Stage::DisSs(_) => "disSS",
        }
    }

    /// `true` for stages that operate per-source over multiple data
    /// sources — the interactive protocols (disPCA/disSS) and the
    /// streaming stage (every source maintains its own summary), which
    /// the CLI therefore shards like the distributed pipelines.
    pub fn is_distributed(&self) -> bool {
        matches!(self, Stage::DisPca(_) | Stage::DisSs(_) | Stage::Stream(_))
    }

    /// Parses one CLI token (`jl`, `fss`, `stream`, `stream:<leaf>`,
    /// `qt`, `qt:<s>`, `dispca`, `disss`).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidStageName`] for unknown tokens, carrying the
    /// valid vocabulary for the CLI's error message.
    pub fn parse(token: &str) -> Result<Stage> {
        let t = token.trim().to_ascii_lowercase();
        match t.as_str() {
            "jl" => Ok(Stage::jl()),
            "fss" => Ok(Stage::fss()),
            "stream" => Ok(Stage::stream()),
            "qt" => Ok(Stage::qt()),
            "dispca" => Ok(Stage::dispca()),
            "disss" => Ok(Stage::disss()),
            _ => {
                if let Some(bits) = t.strip_prefix("qt:") {
                    let s: u32 = bits.parse().map_err(|_| CoreError::InvalidStageName {
                        token: token.to_string(),
                    })?;
                    return Stage::qt_bits(s);
                }
                if let Some(leaf) = t.strip_prefix("stream:") {
                    let leaf: usize = leaf.parse().ok().filter(|&l| l > 0).ok_or(
                        CoreError::InvalidStageName {
                            token: token.to_string(),
                        },
                    )?;
                    return Ok(Stage::stream_leaf(leaf));
                }
                Err(CoreError::InvalidStageName {
                    token: token.to_string(),
                })
            }
        }
    }

    /// Parses a comma-separated stage list (`"jl,fss,qt,jl"`).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidStageName`] on the first unknown token;
    /// [`CoreError::InvalidConfig`] for an empty list.
    pub fn parse_list(list: &str) -> Result<Vec<Stage>> {
        let stages: Vec<Stage> = list
            .split(',')
            .filter(|t| !t.trim().is_empty())
            .map(Stage::parse)
            .collect::<Result<_>>()?;
        if stages.is_empty() {
            return Err(CoreError::InvalidConfig {
                reason: "empty stage list",
            });
        }
        Ok(stages)
    }

    /// The valid `--stages` vocabulary, for error messages and `--help`.
    pub fn vocabulary() -> &'static str {
        "jl, fss, stream, stream:<leaf>, qt, qt:<bits>, dispca, disss"
    }
}

/// The one QT-arming rule shared by the named `+QT` constructors and the
/// CLI's `--quantize` flag: when `params` carry a quantizer and the list
/// has no explicit QT stage, insert one before the first disSS stage
/// (quantization applies to the wire, so it must precede that
/// transmission round) or append it for source-side lists.
pub fn with_default_qt(mut stages: Vec<Stage>, params: &SummaryParams) -> Vec<Stage> {
    if params.quantizer.is_some() && !stages.iter().any(|s| matches!(s, Stage::Qt(_))) {
        let pos = stages
            .iter()
            .position(|s| matches!(s, Stage::DisSs(_)))
            .unwrap_or(stages.len());
        stages.insert(pos, Stage::qt());
    }
    stages
}

/// Joins stage tokens into the paper-legend style display name
/// (`"JL+FSS+QT"`); an empty list is the no-reduction baseline `"NR"`.
pub fn display_name(stages: &[Stage]) -> String {
    if stages.is_empty() {
        return "NR".to_string();
    }
    stages
        .iter()
        .map(Stage::token)
        .collect::<Vec<_>>()
        .join("+")
}

/// Positional JL bookkeeping shared by the driver and every executor:
/// each evolves an identical copy, so they derive the same seed streams
/// and positional roles without communicating.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct JlBook {
    /// Number of JL stages applied so far.
    pub jl_count: usize,
    /// Whether the `JL_AFTER` seed stream has been consumed.
    pub jl_after_used: bool,
    /// Whether any reduction stage (DR/CR/disPCA/disSS) has run.
    pub any_reduction: bool,
}

impl JlBook {
    /// Allocates the seed stream and positional role for the next JL
    /// stage: a leading projection plays the paper's "before-CR" role
    /// (`JL_BEFORE` stream, Lemma 4.1 dimension), later ones the
    /// "after" role (`JL_AFTER` stream, Lemma 4.2 dimension), and any
    /// further projections get fresh derived streams.
    pub fn next_stream(&mut self) -> (u64, bool) {
        let (stream, before_role) = if !self.any_reduction && self.jl_count == 0 {
            (seeds::JL_BEFORE, true)
        } else if !self.jl_after_used {
            self.jl_after_used = true;
            (seeds::JL_AFTER, false)
        } else {
            (seeds::JL_EXTRA_BASE + self.jl_count as u64, false)
        };
        self.jl_count += 1;
        (stream, before_role)
    }
}

/// Resolves a JL stage's target dimension (the one formula the server
/// driver and the source executors must agree on).
pub(crate) fn jl_target_dim(
    cfg: &JlStage,
    params: &SummaryParams,
    cur: usize,
    before_role: bool,
) -> usize {
    match cfg.dim {
        Some(dim) => dim.clamp(1, cur),
        None if before_role => params.effective_jl_before(cur),
        None => params.effective_jl_after(cur),
    }
}

/// Resolves an FSS stage's `(pca_dim, sample_size)`.
pub(crate) fn fss_dims(cfg: &FssStage, params: &SummaryParams, cur: usize) -> (usize, usize) {
    (
        cfg.pca_dim
            .map(|t| t.clamp(1, cur))
            .unwrap_or_else(|| params.effective_pca_dim(cur)),
        cfg.sample_size.unwrap_or(params.coreset_size),
    )
}

/// Resolves a disPCA stage's summary rank `t1 = t2`.
pub(crate) fn dispca_rank(cfg: &DisPcaStage, params: &SummaryParams, cur: usize) -> usize {
    cfg.rank
        .map(|t| t.clamp(1, cur))
        .unwrap_or_else(|| params.effective_pca_dim(cur))
}

/// Resolves a streaming stage's `(leaf_size, per-source budget)` for `m`
/// data sources (the global budget splits evenly, disSS-style).
pub(crate) fn stream_plan(cfg: &StreamStage, params: &SummaryParams, m: usize) -> (usize, usize) {
    let leaf = cfg.leaf_size.unwrap_or(params.stream_leaf_size).max(1);
    let budget = cfg.sample_size.unwrap_or(params.coreset_size);
    (leaf, budget.div_ceil(m).max(params.k).max(1))
}

/// Resolves a disSS stage's global sample budget.
pub(crate) fn disss_budget(cfg: &DisSsStage, params: &SummaryParams) -> usize {
    cfg.sample_size.unwrap_or(params.coreset_size)
}

/// Resolves the effective quantizer of a QT stage against the shared
/// parameters (stage override → params → default width).
pub(crate) fn resolve_quantizer(
    stage: &QuantStage,
    params: &SummaryParams,
) -> Result<RoundingQuantizer> {
    if let Some(q) = &stage.quantizer {
        return Ok(*q);
    }
    if let Some(q) = &params.quantizer {
        return Ok(*q);
    }
    RoundingQuantizer::new(DEFAULT_QT_BITS).map_err(CoreError::Quant)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_tokens() {
        assert_eq!(Stage::parse("jl").unwrap(), Stage::jl());
        assert_eq!(Stage::parse(" FSS ").unwrap(), Stage::fss());
        assert_eq!(Stage::parse("qt").unwrap(), Stage::qt());
        assert_eq!(Stage::parse("dispca").unwrap(), Stage::dispca());
        assert_eq!(Stage::parse("disss").unwrap(), Stage::disss());
        match Stage::parse("qt:6").unwrap() {
            Stage::Qt(QuantStage { quantizer: Some(q) }) => {
                assert_eq!(q.significant_bits(), 6);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(Stage::parse("stream").unwrap(), Stage::stream());
        match Stage::parse("STREAM:128").unwrap() {
            Stage::Stream(StreamStage {
                leaf_size: Some(leaf),
                sample_size: None,
            }) => assert_eq!(leaf, 128),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_rejects_unknown() {
        for bad in [
            "pca", "jlx", "qt:", "qt:abc", "qt:99", "", "stream:", "stream:0", "stream:x",
        ] {
            assert!(Stage::parse(bad).is_err(), "{bad:?} accepted");
        }
        let err = Stage::parse("frobnicate").unwrap_err();
        assert!(err.to_string().contains("frobnicate"));
        assert!(err.to_string().contains("jl"));
    }

    #[test]
    fn parse_list_and_names() {
        let stages = Stage::parse_list("jl,fss,qt,jl").unwrap();
        assert_eq!(stages.len(), 4);
        assert_eq!(display_name(&stages), "JL+FSS+QT+JL");
        assert_eq!(display_name(&[]), "NR");
        assert_eq!(
            display_name(&Stage::parse_list("dispca,disss").unwrap()),
            "disPCA+disSS"
        );
        assert!(Stage::parse_list("").is_err());
        assert!(Stage::parse_list("jl,,fss").is_ok(), "empty tokens skipped");
        assert!(Stage::parse_list("jl,nope").is_err());
    }

    #[test]
    fn default_qt_placement() {
        let plain = SummaryParams::practical(2, 100, 10);
        let quant = plain
            .clone()
            .with_quantizer(ekm_quant::RoundingQuantizer::new(8).unwrap());
        // No quantizer: untouched.
        let s = with_default_qt(Stage::parse_list("jl,fss").unwrap(), &plain);
        assert_eq!(display_name(&s), "JL+FSS");
        // Centralized: appended.
        let s = with_default_qt(Stage::parse_list("jl,fss").unwrap(), &quant);
        assert_eq!(display_name(&s), "JL+FSS+QT");
        // Distributed: inserted before disss.
        let s = with_default_qt(Stage::parse_list("dispca,jl,disss").unwrap(), &quant);
        assert_eq!(display_name(&s), "disPCA+JL+QT+disSS");
        // Explicit qt: not duplicated.
        let s = with_default_qt(Stage::parse_list("qt:4,fss").unwrap(), &quant);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn distributed_flag() {
        assert!(Stage::dispca().is_distributed());
        assert!(Stage::disss().is_distributed());
        assert!(Stage::stream().is_distributed());
        assert!(!Stage::jl().is_distributed());
        assert!(!Stage::fss().is_distributed());
        assert!(!Stage::qt().is_distributed());
    }

    #[test]
    fn stream_compositions_parse_and_display() {
        let stages = Stage::parse_list("jl,stream,qt").unwrap();
        assert_eq!(display_name(&stages), "JL+STREAM+QT");
        // The default-QT rule appends after the streaming summary, where
        // the wire quantization lands.
        let quant = SummaryParams::practical(2, 100, 10)
            .with_quantizer(ekm_quant::RoundingQuantizer::new(8).unwrap());
        let s = with_default_qt(Stage::parse_list("jl,stream").unwrap(), &quant);
        assert_eq!(display_name(&s), "JL+STREAM+QT");
    }
}
