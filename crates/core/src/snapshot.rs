//! Versioned fitted-pool snapshots — the `suod-pool/4` format.
//!
//! A snapshot captures everything a fitted [`Suod`] needs to score new
//! samples bitwise-identically on another process: the builder
//! configuration, every surviving model's scorer (its detector state, or
//! the PSA approximator that replaced it), retained JL projector and
//! training scores, the standardization reference and contamination
//! threshold, and the per-model health report. Like the `suod-trace/1`
//! exporter it is a hand-rolled, dependency-free byte format (see
//! [`suod_linalg::SnapshotWriter`]).
//!
//! # Layout
//!
//! ```text
//! 8 bytes   magic b"SUODPOOL"
//! u64       format version (4; files of versions 1 to 3 still load)
//! str       integrity signature ("lanes64:<16 hex>" over the payload)
//! bytes     payload (length-prefixed)
//! ```
//!
//! The payload is `config section · fitted flag · state section · health
//! section`, every field in a fixed order so that save → load → save is
//! byte-identical. The signature is recomputed at load, with the
//! algorithm the header's version names ([`payload_signature`]), and
//! compared to the stored value: any truncation or bit flip surfaces as a typed
//! [`Error::SnapshotCorrupt`], never a panic.
//!
//! A model record is
//!
//! ```text
//! usize     pool index
//! spec      the model's recipe
//! u8        scorer tag: 0 = detector record, 1 = approximator record
//! record    the scorer
//! option    JL projector
//! f64s      training scores
//! u64       fit time (ns)
//! ```
//!
//! Every fitted value is stored once, by its one owner: the training
//! scores in the model record (detector records hold none), and either
//! the detector or its approximator, never both.
//!
//! Each neighbour-index record carries the HNSW graph fit built, when the
//! index engages HNSW, as per-level CSR. Loading checks the graph against
//! the rules it was built under and uses it as is, so a cold start does
//! not rebuild it. The loader reads the version once and hands it to
//! every record reader; older files differ in four ways:
//!
//! * a `suod-pool/1` to `/3` file is signed with FNV-1a
//!   (`"fnv1a64:<16 hex>"`), a byte-serial hash about 20 times slower
//!   than `/4`'s word-at-a-time `lanes64`. That is all `/4` changed: its
//!   payload decodes exactly as a `/3` payload does;
//! * a `suod-pool/1` file carries no graphs: they are rebuilt at load,
//!   bit for bit the graphs fit built;
//! * a `/1` or `/2` model record stores a detector for every model, an
//!   optional approximator after the projector, and a second copy of the
//!   training scores inside the detector record. The copy is read and
//!   dropped; so is an approximated model's detector, once read in full;
//! * a `/1` or `/2` config carries the precision byte of its kernel
//!   config and the retired `ef_search` slot, both read and checked.
//!
//! Saving a loaded old pool writes `suod-pool/4`, the bytes a fresh fit's
//! save gives (fit times aside).
//!
//! # What is not persisted
//!
//! * the **cost model** and **observer** (trait objects with no state
//!   contract) — a loaded estimator gets the defaults back; reattach via
//!   a fresh builder if needed;
//! * the **neighbour cache** (proximity graphs rebuild on the first
//!   [`Suod::warm_refit`] after a load);
//! * **KD-trees**, which are rebuilt at load;
//! * execution telemetry (`FitDiagnostics::execution`) — health and
//!   module decisions are reconstructed, wall-clock telemetry is not.
//!
//! # Example
//!
//! ```
//! use suod::prelude::*;
//!
//! # fn main() -> Result<(), suod::Error> {
//! let x = suod_linalg::Matrix::from_rows(
//!     &(0..40).map(|i| vec![(i % 7) as f64, (i % 5) as f64]).collect::<Vec<_>>(),
//! ).unwrap();
//! let mut clf = Suod::builder()
//!     .base_estimators(vec![ModelSpec::Hbos { n_bins: 8, tolerance: 0.3 }])
//!     .build()?;
//! clf.fit(&x)?;
//! let bytes = clf.save_to_bytes()?;
//! let restored = Suod::load_from_bytes(&bytes)?;
//! assert_eq!(
//!     clf.decision_function(&x)?,
//!     restored.decision_function(&x)?,
//! );
//! # Ok(())
//! # }
//! ```

use crate::diagnostics::{CpuFeatures, FitDiagnostics, ModelDiagnostics};
use crate::health::{ModelHealth, ModelReport, ModelStatus};
use crate::pseudo::ApproxSpec;
use crate::spec::ModelSpec;
use crate::suod::{FittedModel, FittedState, Scorer, Suod, SuodBuilder, WarmContext};
use crate::{Error, Result};
use std::sync::Arc;
use std::time::Duration;
use suod_detectors::{read_detector, write_detector};
use suod_linalg::{DataFingerprint, SnapshotReader, SnapshotWriter};
use suod_observe::{payload_signature, Counter, SpanAttrs, Stage};
use suod_projection::{JlProjector, JlVariant, Projector};
use suod_scheduler::{ExecutionReport, WorkStealingExecutor};
use suod_supervised::RandomForestRegressor;

/// Leading magic bytes of every `suod-pool` snapshot.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"SUODPOOL";

pub use suod_linalg::snapshot::{OLDEST_SNAPSHOT_VERSION, SNAPSHOT_VERSION};

/// Human-readable format name (magic + version), printed by the CLI.
pub const SNAPSHOT_FORMAT: &str = "suod-pool/4";

fn corrupt(what: &str) -> Error {
    Error::Linalg(suod_linalg::Error::InvalidParameter(format!(
        "snapshot: {what}"
    )))
}

fn write_jl_variant(v: JlVariant, w: &mut SnapshotWriter) {
    w.write_u8(match v {
        JlVariant::Basic => 0,
        JlVariant::Discrete => 1,
        JlVariant::Circulant => 2,
        JlVariant::Toeplitz => 3,
    });
}

fn read_jl_variant(r: &mut SnapshotReader<'_>) -> Result<JlVariant> {
    Ok(match r.read_u8()? {
        0 => JlVariant::Basic,
        1 => JlVariant::Discrete,
        2 => JlVariant::Circulant,
        3 => JlVariant::Toeplitz,
        other => return Err(corrupt(&format!("unknown JlVariant tag {other}"))),
    })
}

fn write_config(config: &SuodBuilder, w: &mut SnapshotWriter) {
    w.write_usize(config.base_estimators.len());
    for spec in &config.base_estimators {
        spec.snapshot_write(w);
    }
    w.write_bool(config.rp_enabled);
    write_jl_variant(config.rp_variant, w);
    w.write_f64(config.rp_target_fraction);
    w.write_usize(config.rp_min_dim);
    w.write_bool(config.approx_enabled);
    config.approx_spec.snapshot_write(w);
    w.write_bool(config.bps_enabled);
    w.write_usize(config.n_workers);
    w.write_f64(config.bps_alpha);
    w.write_f64(config.contamination);
    w.write_u64(config.seed);
    // The slot of the retired neighbour-cache switch: every fit shares
    // its graphs now, so it is always written on.
    w.write_bool(true);
    w.write_kernel_config(&config.kernel);
    w.write_f64(config.min_healthy_fraction);
    w.write_usize(config.max_model_retries);
    w.write_f64(config.straggler_factor);
}

// Reading into the default builder keeps the field list in one place;
// the reassignments mirror `write_config` line for line.
#[allow(clippy::field_reassign_with_default)]
fn read_config(r: &mut SnapshotReader<'_>) -> Result<SuodBuilder> {
    let n_specs = r.read_usize()?;
    let mut base_estimators = Vec::with_capacity(n_specs.min(1 << 20));
    for _ in 0..n_specs {
        base_estimators.push(ModelSpec::snapshot_read(r)?);
    }
    // Cost model and observer are not serializable; the loaded estimator
    // gets the defaults back (documented in the module docs).
    let mut config = SuodBuilder::default();
    config.base_estimators = base_estimators;
    config.rp_enabled = r.read_bool()?;
    config.rp_variant = read_jl_variant(r)?;
    config.rp_target_fraction = r.read_f64()?;
    config.rp_min_dim = r.read_usize()?;
    config.approx_enabled = r.read_bool()?;
    config.approx_spec = ApproxSpec::snapshot_read(r)?;
    config.bps_enabled = r.read_bool()?;
    config.n_workers = r.read_usize()?;
    config.bps_alpha = r.read_f64()?;
    config.contamination = r.read_f64()?;
    config.seed = r.read_u64()?;
    // The retired neighbour-cache switch: a pool fitted with it off
    // scores the same bits, so the stored value is read past.
    r.read_bool()?;
    config.kernel = r.read_kernel_config()?;
    if r.version() < 3 {
        // Slot of the retired `ef_search` builder override, which was
        // always folded into the kernel config above.
        r.read_opt_u64()?;
    }
    config.min_healthy_fraction = r.read_f64()?;
    config.max_model_retries = r.read_usize()?;
    config.straggler_factor = r.read_f64()?;
    Ok(config)
}

/// Scorer tags of a model record (`suod-pool/3` and later).
const SCORER_DETECTOR: u8 = 0;
const SCORER_APPROXIMATOR: u8 = 1;
/// The name an approximator record starts with.
const APPROXIMATOR_NAME: &str = "random_forest";

fn write_model(model: &FittedModel, w: &mut SnapshotWriter) -> Result<()> {
    w.write_usize(model.pool_index);
    model.spec.snapshot_write(w);
    match &model.scorer {
        Scorer::Detector(detector) => {
            w.write_u8(SCORER_DETECTOR);
            write_detector(detector.as_ref(), w)?;
        }
        Scorer::Approximator(approximator) => {
            w.write_u8(SCORER_APPROXIMATOR);
            write_approximator(approximator, w);
        }
    }
    match &model.projector {
        Some(proj) => {
            w.write_bool(true);
            proj.snapshot_write(w)?;
        }
        None => w.write_bool(false),
    }
    w.write_f64s(&model.train_scores);
    w.write_u64(u64::try_from(model.fit_time.as_nanos()).unwrap_or(u64::MAX));
    Ok(())
}

fn read_model(r: &mut SnapshotReader<'_>, n_threads: usize) -> Result<FittedModel> {
    let pool_index = r.read_usize()?;
    let spec = ModelSpec::snapshot_read(r)?;
    let (scorer, projector) = if r.version() < 3 {
        read_v2_scorer(r, n_threads)?
    } else {
        let scorer = match r.read_u8()? {
            SCORER_DETECTOR => Scorer::Detector(read_detector(r, n_threads)?),
            SCORER_APPROXIMATOR => Scorer::Approximator(read_approximator(r)?),
            other => return Err(corrupt(&format!("unknown scorer tag {other}"))),
        };
        (scorer, read_projector(r)?)
    };
    Ok(FittedModel {
        spec,
        pool_index,
        scorer,
        projector,
        train_scores: r.read_f64s()?,
        fit_time: Duration::from_nanos(r.read_u64()?),
    })
}

/// Writes a PSA forest as its record: the name `"random_forest"`, then
/// the forest's state as a length-prefixed body.
fn write_approximator(forest: &RandomForestRegressor, w: &mut SnapshotWriter) {
    w.write_str(APPROXIMATOR_NAME);
    let mut body = SnapshotWriter::new();
    forest.snapshot_write(&mut body);
    w.write_bytes(body.as_bytes());
}

/// Reads a record written by [`write_approximator`]. A record of another
/// name — a retired `"ridge"` or `"knn_regressor"`, a lone
/// `"decision_tree"` — is refused by that name.
fn read_approximator(r: &mut SnapshotReader<'_>) -> Result<RandomForestRegressor> {
    let name = r.read_str()?;
    if name != APPROXIMATOR_NAME {
        return Err(corrupt(&format!(
            "approximator {name:?} is not a {APPROXIMATOR_NAME}; ridge and k-NN were retired"
        )));
    }
    let body = r.read_bytes()?;
    let mut body = r.nested(body);
    let forest = RandomForestRegressor::snapshot_read(&mut body)?;
    if !body.is_exhausted() {
        return Err(corrupt(&format!(
            "approximator left {} trailing bytes",
            body.remaining()
        )));
    }
    Ok(forest)
}

fn read_projector(r: &mut SnapshotReader<'_>) -> Result<Option<JlProjector>> {
    Ok(if r.read_bool()? {
        Some(JlProjector::snapshot_read(r)?)
    } else {
        None
    })
}

/// The scorer and projector of a `suod-pool/1` or `/2` model record,
/// which stores the detector of every model and then, optionally, its
/// approximator. An approximated model's detector is read in full, so
/// its record is validated, and dropped: a loaded old pool holds what a
/// fresh fit does.
fn read_v2_scorer(
    r: &mut SnapshotReader<'_>,
    n_threads: usize,
) -> Result<(Scorer, Option<JlProjector>)> {
    let detector = read_detector(r, n_threads)?;
    let projector = read_projector(r)?;
    let scorer = if r.read_bool()? {
        Scorer::Approximator(read_approximator(r)?)
    } else {
        Scorer::Detector(detector)
    };
    Ok((scorer, projector))
}

fn write_health(health: &ModelHealth, w: &mut SnapshotWriter) {
    let reports = health.reports();
    w.write_usize(reports.len());
    for rep in reports {
        w.write_usize(rep.index);
        w.write_u8(match rep.status {
            ModelStatus::Healthy => 0,
            ModelStatus::Quarantined => 1,
        });
        match &rep.cause {
            Some(cause) => {
                w.write_bool(true);
                suod_detectors::write_error(cause, w);
            }
            None => w.write_bool(false),
        }
        w.write_usize(rep.attempts);
        w.write_bool(rep.straggler);
    }
}

/// Reads a health section; model names are rebuilt from the configured
/// pool (they are `&'static str` views of the spec names).
fn read_health(r: &mut SnapshotReader<'_>, config: &SuodBuilder) -> Result<ModelHealth> {
    let n = r.read_usize()?;
    let mut reports = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let index = r.read_usize()?;
        let name = config
            .base_estimators
            .get(index)
            .ok_or_else(|| corrupt(&format!("health report index {index} out of range")))?
            .name();
        let status = match r.read_u8()? {
            0 => ModelStatus::Healthy,
            1 => ModelStatus::Quarantined,
            other => return Err(corrupt(&format!("unknown ModelStatus tag {other}"))),
        };
        let cause = if r.read_bool()? {
            Some(suod_detectors::read_error(r)?)
        } else {
            None
        };
        reports.push(ModelReport {
            index,
            name,
            status,
            cause,
            attempts: r.read_usize()?,
            straggler: r.read_bool()?,
        });
    }
    Ok(ModelHealth::new(reports))
}

impl Suod {
    /// Serializes the estimator — configuration, fitted state, and health
    /// report — into a `suod-pool/4` snapshot.
    ///
    /// The bytes are self-verifying: the header carries a deterministic
    /// signature over the payload which [`Suod::load_from_bytes`] checks
    /// before touching any model state. `load(save(pool))` produces an
    /// estimator whose `decision_function` is **bitwise-equal** at any
    /// worker count, and `save(load(save(pool)))` is byte-identical.
    ///
    /// # Errors
    ///
    /// Propagates serialization failures from detector / projector /
    /// regressor state writers.
    pub fn save_to_bytes(&self) -> Result<Vec<u8>> {
        let obs = Arc::clone(&self.config.observer);
        let _span = suod_observe::span(obs.as_ref(), Stage::SnapshotSave, SpanAttrs::none());
        let mut payload = SnapshotWriter::new();
        write_config(&self.config, &mut payload);
        match &self.state {
            Some(state) => {
                payload.write_bool(true);
                payload.write_usize(state.n_features);
                payload.write_f64(state.threshold);
                payload.write_f64s(&state.score_means);
                payload.write_f64s(&state.score_stds);
                match &self.warm {
                    Some(warm) => {
                        payload.write_bool(true);
                        warm.train_fingerprint.snapshot_write(&mut payload);
                    }
                    None => payload.write_bool(false),
                }
                payload.write_usize(state.models.len());
                for model in &state.models {
                    write_model(model, &mut payload)?;
                }
            }
            None => payload.write_bool(false),
        }
        match self.diagnostics.as_ref().map(|d| d.health()) {
            Some(health) => {
                payload.write_bool(true);
                write_health(health, &mut payload);
            }
            None => payload.write_bool(false),
        }

        let payload = payload.into_bytes();
        let mut out = SnapshotWriter::new();
        let mut bytes = Vec::with_capacity(payload.len() + 64);
        bytes.extend_from_slice(SNAPSHOT_MAGIC);
        out.write_u64(SNAPSHOT_VERSION);
        out.write_str(&payload_signature(SNAPSHOT_VERSION, &payload));
        out.write_bytes(&payload);
        bytes.extend_from_slice(out.as_bytes());
        obs.counter(Counter::SnapshotSave, 1);
        Ok(bytes)
    }

    /// Writes a `suod-pool/4` snapshot to `path` **atomically**: the
    /// bytes land in a sibling temporary file first and are renamed into
    /// place, so a reader (e.g. a serving process hot-reloading the
    /// pool) never observes a half-written snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SnapshotIo`] on filesystem failures, plus
    /// everything [`Suod::save_to_bytes`] returns.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<()> {
        let path = path.as_ref();
        let bytes = self.save_to_bytes()?;
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, &bytes)
            .map_err(|e| Error::SnapshotIo(format!("writing {}: {e}", tmp.display())))?;
        std::fs::rename(&tmp, path)
            .map_err(|e| Error::SnapshotIo(format!("renaming into {}: {e}", path.display())))?;
        Ok(())
    }

    /// Deserializes a snapshot produced by [`Suod::save_to_bytes`].
    ///
    /// The payload signature is verified first, with the algorithm the
    /// header's version names (never the one the stored string names, so
    /// a `/4` file carrying an FNV string is corrupt); corrupt or truncated
    /// input returns a typed error ([`Error::SnapshotCorrupt`] /
    /// [`Error::SnapshotFormat`]), never panics. The loaded estimator
    /// scores bitwise-identically to the saved one at any worker count.
    /// The cost model and observer come back as defaults, and the
    /// neighbour cache starts empty (see the module docs).
    ///
    /// # Errors
    ///
    /// * [`Error::SnapshotFormat`] — wrong magic, or a version outside
    ///   [`OLDEST_SNAPSHOT_VERSION`]`..=`[`SNAPSHOT_VERSION`];
    /// * [`Error::SnapshotCorrupt`] — stored and recomputed payload
    ///   signatures differ;
    /// * [`Error::Linalg`] — structurally malformed payload (truncated
    ///   fields, unknown tags, trailing bytes, a stored HNSW graph that
    ///   breaks its load rules).
    pub fn load_from_bytes(bytes: &[u8]) -> Result<Suod> {
        if bytes.len() < SNAPSHOT_MAGIC.len() || &bytes[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
            return Err(Error::SnapshotFormat(
                "missing suod-pool magic (not a snapshot file)".into(),
            ));
        }
        let mut header = SnapshotReader::new(&bytes[SNAPSHOT_MAGIC.len()..]);
        let version = header.read_u64()?;
        if !(OLDEST_SNAPSHOT_VERSION..=SNAPSHOT_VERSION).contains(&version) {
            return Err(Error::SnapshotFormat(format!(
                "snapshot version {version} is not supported (this build reads \
                 suod-pool/{OLDEST_SNAPSHOT_VERSION} to {SNAPSHOT_FORMAT})"
            )));
        }
        let expected = header.read_str()?;
        let payload = header.read_bytes()?;
        if !header.is_exhausted() {
            return Err(corrupt(&format!(
                "{} trailing bytes after payload",
                header.remaining()
            )));
        }
        let actual = payload_signature(version, payload);
        if actual != expected {
            return Err(Error::SnapshotCorrupt { expected, actual });
        }

        let mut r = SnapshotReader::with_version(payload, version);
        let config = read_config(&mut r)?;
        let n_workers = config.n_workers.max(1);
        let fitted = r.read_bool()?;
        let mut fingerprint: Option<DataFingerprint> = None;
        let state = if fitted {
            let n_features = r.read_usize()?;
            let threshold = r.read_f64()?;
            let score_means = r.read_f64s()?;
            let score_stds = r.read_f64s()?;
            if r.read_bool()? {
                fingerprint = Some(DataFingerprint::snapshot_read(&mut r)?);
            }
            let n_models = r.read_usize()?;
            let mut models = Vec::with_capacity(n_models.min(1 << 20));
            for _ in 0..n_models {
                models.push(Arc::new(read_model(&mut r, n_workers)?));
            }
            Some(Arc::new(FittedState::new(
                models,
                threshold,
                n_features,
                score_means,
                score_stds,
            )))
        } else {
            None
        };
        let health = if r.read_bool()? {
            Some(read_health(&mut r, &config)?)
        } else {
            None
        };
        if !r.is_exhausted() {
            return Err(corrupt(&format!(
                "{} trailing bytes in payload",
                r.remaining()
            )));
        }

        // Rebuild the derived runtime pieces the snapshot does not carry:
        // the executor (prediction requires one) and the diagnostics view
        // (health + module decisions; execution telemetry is gone).
        let executor = if state.is_some() {
            Some(Arc::new(
                WorkStealingExecutor::new(n_workers).map_err(Error::Scheduler)?,
            ))
        } else {
            None
        };
        let diagnostics = health.map(|health| {
            let models_diag = health
                .reports()
                .iter()
                .map(|rep| {
                    let model = state
                        .as_ref()
                        .and_then(|s| s.models.iter().find(|m| m.pool_index == rep.index));
                    ModelDiagnostics {
                        index: rep.index,
                        name: rep.name,
                        status: rep.status,
                        attempts: rep.attempts,
                        straggler: rep.straggler,
                        fit_time: model.map(|m| m.fit_time),
                        projected: model.is_some_and(|m| m.projector.is_some()),
                        approximated: model.is_some_and(|m| m.is_approximated()),
                    }
                })
                .collect();
            FitDiagnostics::new(
                ExecutionReport::default(),
                health,
                models_diag,
                CpuFeatures::detect(config.kernel.neighbor),
                0,
            )
        });
        let warm = match (&state, fingerprint) {
            // The neighbour cache is not persisted: a loaded pool's starts
            // empty, so warm refits after a load rebuild proximity graphs
            // but still reuse survivor models via the stored fingerprint.
            (Some(_), Some(fp)) => Some(WarmContext {
                cache: config.fresh_cache(),
                train_fingerprint: fp,
            }),
            _ => None,
        };
        let clf = Suod {
            config,
            state,
            executor,
            diagnostics,
            warm,
        };
        clf.config.observer.counter(Counter::SnapshotLoad, 1);
        Ok(clf)
    }

    /// Reads a `suod-pool` snapshot from `path` (see
    /// [`Suod::load_from_bytes`]).
    ///
    /// # Errors
    ///
    /// Returns [`Error::SnapshotIo`] on filesystem failures, plus
    /// everything [`Suod::load_from_bytes`] returns.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Suod> {
        let path = path.as_ref();
        let bytes = std::fs::read(path)
            .map_err(|e| Error::SnapshotIo(format!("reading {}: {e}", path.display())))?;
        Self::load_from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suod::testing::small_pool;

    /// A `suod-pool/2` file stores a detector for every model. Loaded, its
    /// approximated models hold their regressor alone, as a fresh fit's
    /// do: the committed v2 fixture's kNN and two LOFs are distilled.
    #[test]
    fn a_loaded_v2_pool_keeps_only_the_approximators() {
        let fixture = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../system-tests/tests/fixtures/golden-v2.suod"
        );
        let clf = Suod::load(fixture).expect("v2 fixture loads");
        let state = clf.state.as_ref().expect("fitted");
        let approximated: Vec<bool> = state
            .models
            .iter()
            .map(|m| matches!(m.scorer, Scorer::Approximator(_)))
            .collect();
        assert_eq!(approximated, [false, false, true, true, true]);
        for model in &state.models {
            assert_eq!(model.is_approximated(), model.spec.is_costly());
        }
    }

    /// The optional-`u64` slot after the kernel config once carried the
    /// builder's `ef_search` override (already folded into the persisted
    /// kernel config). `suod-pool/3` dropped it with the kernel config's
    /// precision byte; a `suod-pool/2` file with a value in the slot must
    /// still load, and re-encode as a fresh save.
    #[test]
    fn retired_ef_search_slot_loads_with_a_value_in_it() {
        let unfitted = Suod::builder()
            .base_estimators(small_pool())
            .build()
            .unwrap();
        let bytes = unfitted.save_to_bytes().unwrap();
        let mut header = SnapshotReader::new(&bytes[SNAPSHOT_MAGIC.len()..]);
        header.read_u64().unwrap();
        header.read_str().unwrap();
        let payload = header.read_bytes().unwrap();

        // Unfitted, no health: the config ends with an exact-neighbour
        // kernel config (backend tag, two u64, neighbour tag), then three
        // 8-byte fields, then the fitted + health flags.
        let slot = payload.len() - (3 * 8 + 2);
        let kernel = slot - 18;
        assert_eq!(payload[slot - 1], 0, "exact neighbour backend");
        let mut v2 = payload[..=kernel].to_vec();
        v2.push(0); // precision byte: f64
        v2.extend_from_slice(&payload[kernel + 1..slot]);
        v2.push(1);
        v2.extend_from_slice(&128u64.to_le_bytes());
        v2.extend_from_slice(&payload[slot..]);

        let mut framed = SnapshotWriter::new();
        framed.write_u64(2);
        framed.write_str(&payload_signature(2, &v2));
        framed.write_bytes(&v2);
        let old_file = [&SNAPSHOT_MAGIC[..], framed.as_bytes()].concat();

        let loaded = Suod::load_from_bytes(&old_file).expect("old file loads");
        assert_eq!(loaded.n_models(), 4);
        assert_eq!(loaded.save_to_bytes().unwrap(), bytes);
    }

    fn snapshot_error<T>(result: Result<T>) -> String {
        match result {
            Err(Error::Linalg(suod_linalg::Error::InvalidParameter(msg))) => msg,
            Err(other) => panic!("expected a typed snapshot error, got {other:?}"),
            Ok(_) => panic!("expected a typed snapshot error, got a value"),
        }
    }

    fn small_forest() -> RandomForestRegressor {
        use suod_supervised::Regressor;
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64, (i % 3) as f64]).collect();
        let x = suod_linalg::Matrix::from_rows(&rows).unwrap();
        let y: Vec<f64> = (0..20).map(|i| (i * i % 7) as f64).collect();
        let mut forest = RandomForestRegressor::new(3, 5).with_max_depth(3);
        forest.fit(&x, &y).unwrap();
        forest
    }

    #[test]
    fn approximator_record_round_trips() {
        let mut w = SnapshotWriter::new();
        write_approximator(&small_forest(), &mut w);
        let mut r = SnapshotReader::new(w.as_bytes());
        let loaded = read_approximator(&mut r).unwrap();
        assert!(r.is_exhausted());
        let mut again = SnapshotWriter::new();
        write_approximator(&loaded, &mut again);
        assert_eq!(again.as_bytes(), w.as_bytes());
    }

    #[test]
    fn approximator_record_with_trailing_bytes_is_rejected() {
        let mut body = SnapshotWriter::new();
        small_forest().snapshot_write(&mut body);
        body.write_u8(0);
        let mut w = SnapshotWriter::new();
        w.write_str(APPROXIMATOR_NAME);
        w.write_bytes(body.as_bytes());
        let msg = snapshot_error(read_approximator(&mut SnapshotReader::new(w.as_bytes())));
        assert_eq!(msg, "snapshot: approximator left 1 trailing bytes");
    }

    #[test]
    fn jl_variant_tags_round_trip_and_unknown_tags_fail() {
        for variant in [
            JlVariant::Basic,
            JlVariant::Discrete,
            JlVariant::Circulant,
            JlVariant::Toeplitz,
        ] {
            let mut w = SnapshotWriter::new();
            write_jl_variant(variant, &mut w);
            assert_eq!(w.len(), 1);
            let read = read_jl_variant(&mut SnapshotReader::new(w.as_bytes())).unwrap();
            assert_eq!(read, variant);
        }
        let msg = snapshot_error(read_jl_variant(&mut SnapshotReader::new(&[4])));
        assert_eq!(msg, "snapshot: unknown JlVariant tag 4");
    }

    #[test]
    fn unknown_scorer_tag_is_a_typed_error() {
        let mut w = SnapshotWriter::new();
        w.write_usize(0);
        small_pool()[0].snapshot_write(&mut w);
        w.write_u8(7);
        let msg = snapshot_error(read_model(&mut SnapshotReader::new(w.as_bytes()), 1));
        assert_eq!(msg, "snapshot: unknown scorer tag 7");
    }

    #[test]
    fn config_record_round_trips() {
        let mut config = Suod::builder()
            .base_estimators(small_pool())
            .projection_variant(JlVariant::Toeplitz)
            .projection_fraction(0.75)
            .approximator(ApproxSpec::RandomForest {
                n_estimators: 9,
                max_depth: 5,
            })
            .n_workers(3)
            .contamination(0.2)
            .seed(77)
            .min_healthy_fraction(0.25)
            .max_model_retries(4);
        config.bps_enabled = false;
        let mut w = SnapshotWriter::new();
        write_config(&config, &mut w);
        let mut r = SnapshotReader::new(w.as_bytes());
        let loaded = read_config(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(loaded.base_estimators, config.base_estimators);
        assert_eq!(loaded.rp_variant, JlVariant::Toeplitz);
        assert_eq!(loaded.approx_spec, config.approx_spec);
        assert_eq!(
            (loaded.n_workers, loaded.seed, loaded.bps_enabled),
            (3, 77, false)
        );
        let mut again = SnapshotWriter::new();
        write_config(&loaded, &mut again);
        assert_eq!(again.as_bytes(), w.as_bytes());
    }
}
