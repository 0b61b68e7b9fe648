//! The composable stage vocabulary: the plan every run executes.
//!
//! The paper's central observation is that a summary is a *composition*:
//! dimensionality reduction (DR), cardinality reduction (CR), and
//! quantization (QT) can be stacked in any order, and the order
//! determines both communication cost and accuracy (§4 "order matters").
//! Algorithms 1–4 are four points in that composition space; a [`Stage`]
//! list names an arbitrary point, and
//! [`StagePipeline`](crate::StagePipeline) carries it to the driver and
//! the source executors. Both ends read the plan's facts off the list
//! with the helpers here — the composition rules (`check_plan`), each
//! JL stage's seed stream and role (read off its position), every
//! resolved dimension — and so agree on them without communicating.
//!
//! A stage names a step, not its sizes: every JL dimension, PCA rank,
//! coreset size and leaf size comes from the run's
//! [`SummaryParams`], which derives them from `(n, d, k, ε)`. The one
//! per-stage setting is a QT stage's width (`qt:<bits>`), so one sweep
//! can compare widths.
//!
//! | Token | Stage | Effect on the summary state |
//! |---|---|---|
//! | `jl` | [`Stage::Dr`] | seeded JL projection of the working points (zero communication) |
//! | `fss` | [`Stage::Cr`] | FSS coreset: points → (coordinates, weights, Δ) + a basis to transmit |
//! | `stream` | [`Stage::Stream`] | merge-and-reduce streaming coreset per source (each source summarizes while collecting) |
//! | `qt`, `qt:<bits>` | [`Stage::Qt`] | arms the rounding quantizer (the parameters' or a `<bits>`-bit one) for subsequent coreset-point transmissions |
//! | `dispca` | [`Stage::DisPca`] | distributed PCA round: local SVD summaries up, global basis down |
//! | `disss` | [`Stage::DisSs`] | distributed sensitivity sampling: the summary moves to the server |

use crate::params::SummaryParams;
use crate::pipelines::seeds;
use crate::{CoreError, Result};
use ekm_quant::RoundingQuantizer;

/// Default significand bits when a `qt` stage is requested without an
/// explicit width (`qt:<s>`) and the parameters carry no quantizer.
pub const DEFAULT_QT_BITS: u32 = 10;

/// A JL (DR) stage. Its target dimension follows from its plan
/// position: the parameters' pre-CR dimension for a leading projection,
/// the post-CR one otherwise (matching Algorithms 1–3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JlStage;

/// An FSS (CR) stage: `SummaryParams::coreset_size` points in the
/// clamped `SummaryParams::pca_dim` dimensions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FssStage;

/// A streaming (merge-and-reduce) CR stage: leaves of
/// `SummaryParams::stream_leaf_size` rows, and the global
/// `SummaryParams::coreset_size` budget split evenly across the data
/// sources.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamStage;

/// Configuration of a QT stage.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QuantStage {
    /// Explicit quantizer (defaults to the parameters' quantizer, then to
    /// [`DEFAULT_QT_BITS`]).
    pub quantizer: Option<RoundingQuantizer>,
}

/// A disPCA stage: summary rank `t1 = t2` is the clamped
/// `SummaryParams::pca_dim`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DisPcaStage;

/// A disSS stage: the global sample budget is
/// `SummaryParams::coreset_size`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DisSsStage;

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
    /// A JL stage.
    pub fn jl() -> Stage {
        Stage::Dr(JlStage)
    }

    /// An FSS stage.
    pub fn fss() -> Stage {
        Stage::Cr(FssStage)
    }

    /// A streaming merge-and-reduce stage.
    pub fn stream() -> Stage {
        Stage::Stream(StreamStage)
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

    /// A disPCA stage.
    pub fn dispca() -> Stage {
        Stage::DisPca(DisPcaStage)
    }

    /// A disSS stage.
    pub fn disss() -> Stage {
        Stage::DisSs(DisSsStage)
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

    /// `true` for stages that work on plain points: a source holding
    /// coordinates in a basis (after `fss` or `dispca`) re-expands them
    /// into the basis' parent space before such a stage runs, and the
    /// driver drops its copy of the basis to match. `stream`, `qt` and
    /// `disss` run on the coordinates, and the final lift re-expands
    /// their summary.
    pub fn re_expands_basis(&self) -> bool {
        matches!(self, Stage::Dr(_) | Stage::Cr(_) | Stage::DisPca(_))
    }

    /// Parses one CLI token (`jl`, `fss`, `stream`, `qt`, `qt:<s>`,
    /// `dispca`, `disss`).
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
        "jl, fss, stream, qt, qt:<bits>, dispca, disss"
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

/// The composition rules, stated once: the driver checks a plan over
/// `m` data sources before its first stage round, every executor before
/// it runs a stage. Stages are checked in plan order, so the first
/// offending one names the error.
///
/// # Errors
///
/// [`CoreError::InvalidConfig`] for a second coreset stage (`fss` or
/// `stream`), `fss` over several sources, `dispca`/`disss` after a
/// coreset stage, or any stage after `disss`; the quantizer's error for
/// a `qt` stage whose quantizer does not resolve. (A zero sample budget
/// is `SummaryParams::validate`'s to refuse.)
pub(crate) fn check_plan(stages: &[Stage], params: &SummaryParams, m: usize) -> Result<()> {
    let (mut coreset, mut handed_off) = (false, false);
    for stage in stages {
        let broken = match stage {
            _ if handed_off => {
                Some("no stage may follow disss: the summary already lives at the server")
            }
            Stage::Cr(_) if m != 1 => {
                Some("fss is a single-source stage (multi-source pipelines use dispca/disss)")
            }
            Stage::Cr(_) | Stage::Stream(_) if coreset => {
                Some("multiple coreset stages in one pipeline")
            }
            Stage::DisPca(_) if coreset => Some("dispca after a coreset stage is unsupported"),
            Stage::DisSs(_) if coreset => Some("disss after a coreset stage is unsupported"),
            Stage::Qt(cfg) => resolve_quantizer(cfg, params).map(|_| None)?,
            _ => None,
        };
        if let Some(reason) = broken {
            return Err(CoreError::InvalidConfig { reason });
        }
        coreset |= matches!(stage, Stage::Cr(_) | Stage::Stream(_));
        handed_off |= matches!(stage, Stage::DisSs(_));
    }
    Ok(())
}

/// The `(seed stream, before_role)` of the JL stage at `index`, read off
/// the plan: a projection with only `qt` stages before it plays the
/// paper's "before-CR" role (`JL_BEFORE` stream, Lemma 4.1 dimension),
/// the next JL stage the "after" role (`JL_AFTER`, Lemma 4.2), and any
/// further one a stream derived from the number of JL stages before it.
pub(crate) fn jl_stream(stages: &[Stage], index: usize) -> (u64, bool) {
    let earlier = &stages[..index];
    if earlier.iter().all(|s| matches!(s, Stage::Qt(_))) {
        return (seeds::JL_BEFORE, true);
    }
    let jls = earlier.iter().filter(|s| matches!(s, Stage::Dr(_))).count();
    let leading_jl = matches!(
        earlier.iter().find(|s| !matches!(s, Stage::Qt(_))),
        Some(Stage::Dr(_))
    );
    if jls == usize::from(leading_jl) {
        (seeds::JL_AFTER, false)
    } else {
        (seeds::JL_EXTRA_BASE + jls as u64, false)
    }
}

/// A JL stage's target dimension (the one formula the server driver
/// and the source executors must agree on); `before_role` comes from
/// [`jl_stream`].
pub(crate) fn jl_target_dim(params: &SummaryParams, cur: usize, before_role: bool) -> usize {
    if before_role {
        params.effective_jl_before(cur)
    } else {
        params.effective_jl_after(cur)
    }
}

/// A streaming stage's `(leaf_size, per-source budget)` for `m` data
/// sources (the global budget splits evenly, disSS-style).
pub(crate) fn stream_plan(params: &SummaryParams, m: usize) -> (usize, usize) {
    let leaf = params.stream_leaf_size.max(1);
    (leaf, params.coreset_size.div_ceil(m).max(params.k).max(1))
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
        assert_eq!(Stage::parse("STREAM").unwrap(), Stage::stream());
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
        // A stage carries no size: the leaf size is `--leaf-size`'s.
        let err = Stage::parse("stream:128").unwrap_err().to_string();
        assert!(err.contains("unknown stage 'stream:128'"), "{err}");
        assert!(err.contains(Stage::vocabulary()), "{err}");
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
    fn plain_point_stages_re_expand_a_basis() {
        for (token, want) in [
            ("jl", true),
            ("fss", true),
            ("dispca", true),
            ("stream", false),
            ("qt", false),
            ("disss", false),
        ] {
            assert_eq!(
                Stage::parse(token).unwrap().re_expands_basis(),
                want,
                "{token}"
            );
        }
    }

    #[test]
    fn check_plan_states_every_composition_rule() {
        let params = SummaryParams::practical(2, 100, 10);
        // (stages, sources, the broken rule or None)
        let table: &[(&str, usize, Option<&str>)] = &[
            ("jl,fss,qt,jl", 1, None),
            ("qt:4,fss", 1, None),
            ("dispca,jl,qt,disss", 3, None),
            ("stream", 2, None),
            ("stream,jl", 2, None),
            ("stream,qt", 2, None),
            ("jl,stream,jl,qt", 2, None),
            ("fss", 2, Some("fss is a single-source stage")),
            ("fss,stream", 2, Some("fss is a single-source stage")),
            ("stream,fss", 2, Some("fss is a single-source stage")),
            ("fss,fss", 1, Some("multiple coreset stages")),
            ("stream,fss", 1, Some("multiple coreset stages")),
            ("fss,stream", 1, Some("multiple coreset stages")),
            ("stream,stream", 2, Some("multiple coreset stages")),
            ("stream,dispca", 2, Some("dispca after a coreset stage")),
            ("fss,dispca", 1, Some("dispca after a coreset stage")),
            ("stream,disss", 2, Some("disss after a coreset stage")),
            ("disss,jl", 2, Some("no stage may follow disss")),
            ("disss,qt", 2, Some("no stage may follow disss")),
            ("disss,fss", 2, Some("no stage may follow disss")),
            ("disss,stream", 2, Some("no stage may follow disss")),
            ("dispca,disss,dispca", 2, Some("no stage may follow disss")),
        ];
        for &(list, m, rule) in table {
            let stages = Stage::parse_list(list).unwrap();
            match (check_plan(&stages, &params, m), rule) {
                (Ok(()), None) => {}
                (Err(CoreError::InvalidConfig { reason }), Some(rule)) => {
                    assert!(reason.starts_with(rule), "{list} over {m}: {reason}");
                }
                (got, want) => panic!("{list} over {m}: got {got:?}, want {want:?}"),
            }
        }
        // The empty plan is fine.
        assert!(check_plan(&[], &params, 4).is_ok());
    }

    #[test]
    fn jl_streams_are_read_off_the_plan_position() {
        use seeds::{JL_AFTER, JL_BEFORE, JL_EXTRA_BASE};
        // (stages, index of a JL stage, its stream and role)
        let table: &[(&str, usize, (u64, bool))] = &[
            ("jl", 0, (JL_BEFORE, true)),
            ("qt,qt:4,jl", 2, (JL_BEFORE, true)),
            ("jl,fss,jl", 2, (JL_AFTER, false)),
            ("jl,jl", 1, (JL_AFTER, false)),
            ("qt,jl,qt,jl", 3, (JL_AFTER, false)),
            ("fss,jl", 1, (JL_AFTER, false)),
            ("dispca,jl,disss", 1, (JL_AFTER, false)),
            ("stream,jl", 1, (JL_AFTER, false)),
            ("fss,jl,jl", 2, (JL_EXTRA_BASE + 1, false)),
            ("jl,fss,jl,jl", 3, (JL_EXTRA_BASE + 2, false)),
            ("jl,jl,jl,jl", 3, (JL_EXTRA_BASE + 3, false)),
            ("fss,jl,qt,jl,jl", 4, (JL_EXTRA_BASE + 2, false)),
        ];
        for &(list, index, want) in table {
            let stages = Stage::parse_list(list).unwrap();
            assert!(matches!(stages[index], Stage::Dr(_)), "{list}");
            assert_eq!(jl_stream(&stages, index), want, "{list} at {index}");
        }
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
