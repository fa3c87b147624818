//! A three-level model cache keyed by geometry content hash.
//!
//! Batch streams routinely repeat the same geometry across model kinds
//! and analyses (a sweep over kinds, or repeated requests for the same
//! bus). The cache shares the two expensive stages:
//!
//! - **Level 1** — `layout.content_hash()` → extracted [`Experiment`]
//!   (the O(N²) extraction runs once per distinct geometry);
//! - **Level 2** — `(hash, kind label)` → built model (the O(N³)
//!   inversion and netlist lowering run once per distinct
//!   geometry × kind);
//! - **Level 3** — `(hash, kind label, dt bits)` → prepared
//!   transient factorization ([`vpec_circuit::TransientFactor`]): the
//!   factor-once/solve-many layer, so repeated transient requests for
//!   the same model pay the MNA factorization and DC solve once.
//!
//! `dt` is the only spec field that shapes the factored matrix of an
//! engine request: the engine always issues the default integrator, and
//! the factorization backend is chosen from the matrix itself. The
//! prefactored run still re-validates the spec **exactly** before
//! reuse — a mismatch is a loud error, never a stale answer.
//!
//! The runner bypasses the cache entirely for fault-injected requests:
//! injected faults change behaviour, not geometry, so neither their
//! results nor their side effects may be shared.
//!
//! What each level buys, as the median `wall_s` of the `engine_batch`
//! workload with one level switched off at a time (2-vCPU host):
//!
//! | Configuration | Median `wall_s` | Runs |
//! |---|---|---|
//! | all levels on | 0.461 s (IQR 0.425–0.478) | 17 |
//! | level 2 (models) off | 0.610 s | 5 |
//! | level 3 (factors) off | 0.622 s | 5 |
//! | level 1 (experiments) off | 0.433 s | 17 |
//!
//! Levels 2 and 3 earn their place. Level 1 shows no win: without it,
//! runs were faster in 4 of 12 alternating pairs. It stays because
//! `RunRecord::experiment_hit` reports it, and deleting it would turn
//! that ledger field into a constant.

use std::collections::HashMap;
use std::sync::Arc;
use vpec_circuit::{TransientFactor, TransientSpec};
use vpec_core::harness::{BuiltModel, Experiment, ModelKind};
use vpec_core::{CoreError, DriveConfig};
use vpec_extract::ExtractionConfig;
use vpec_geometry::Layout;
use vpec_numerics::CancelToken;

/// The cache. One per [`crate::Engine`]; requests run sequentially, so no
/// interior locking is needed.
#[derive(Debug, Default)]
pub struct ModelCache {
    experiments: HashMap<u64, Arc<Experiment>>,
    models: HashMap<(u64, String), Arc<BuiltModel>>,
    factors: HashMap<(u64, String, u64), Arc<TransientFactor>>,
    factor_hits: u64,
    factor_misses: u64,
}

impl ModelCache {
    /// An empty cache.
    pub fn new() -> Self {
        ModelCache::default()
    }

    /// Transient-factor cache hits so far (factor-once/solve-many).
    pub fn factor_hits(&self) -> u64 {
        self.factor_hits
    }

    /// Transient-factor cache misses so far.
    pub fn factor_misses(&self) -> u64 {
        self.factor_misses
    }

    /// Number of distinct geometries extracted.
    pub fn experiments_len(&self) -> usize {
        self.experiments.len()
    }

    /// Returns the extracted experiment for `layout`, extracting on first
    /// sight. The boolean is `true` on a cache hit.
    pub fn experiment_for(
        &mut self,
        layout: Layout,
        config: &ExtractionConfig,
        drive: DriveConfig,
    ) -> (u64, Arc<Experiment>, bool) {
        let hash = layout.content_hash();
        if let Some(exp) = self.experiments.get(&hash) {
            return (hash, Arc::clone(exp), true);
        }
        let exp = Arc::new(Experiment::new(layout, config, drive));
        self.experiments.insert(hash, Arc::clone(&exp));
        (hash, exp, false)
    }

    /// Returns the built model for `(hash, kind)`, building (with
    /// cancellation support) on first sight. The boolean is `true` on a
    /// cache hit.
    ///
    /// # Errors
    ///
    /// Propagates build failures; failed builds are not cached, so a
    /// later retry re-runs the build.
    pub fn model_for(
        &mut self,
        hash: u64,
        exp: &Experiment,
        kind: ModelKind,
        cancel: &CancelToken,
    ) -> Result<(Arc<BuiltModel>, bool), CoreError> {
        let key = (hash, kind.label());
        if let Some(m) = self.models.get(&key) {
            return Ok((Arc::clone(m), true));
        }
        let built = Arc::new(exp.build_cancel(kind, cancel)?);
        self.models.insert(key, Arc::clone(&built));
        Ok((built, false))
    }

    /// Returns the prepared transient factorization for `(hash, kind,
    /// spec.dt)`, factoring on first sight — the
    /// factor-once/solve-many entry point. The boolean is `true` on a
    /// cache hit.
    ///
    /// The caller must pass the same `model` the key's `(hash, kind)`
    /// maps to; the prefactored run re-validates the match exactly
    /// before reusing the factor, so a wiring mistake here fails loudly
    /// instead of producing a stale answer.
    ///
    /// # Errors
    ///
    /// Propagates factorization/DC failures; failed preparations are not
    /// cached, so a later retry re-runs them.
    pub fn factor_for(
        &mut self,
        hash: u64,
        kind: ModelKind,
        model: &BuiltModel,
        spec: &TransientSpec,
    ) -> Result<(Arc<TransientFactor>, bool), CoreError> {
        let key = (hash, kind.label(), spec.dt.to_bits());
        if let Some(f) = self.factors.get(&key) {
            self.factor_hits += 1;
            return Ok((Arc::clone(f), true));
        }
        let factor = Arc::new(model.prepare_transient(spec)?);
        self.factor_misses += 1;
        self.factors.insert(key, Arc::clone(&factor));
        Ok((factor, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpec_geometry::BusSpec;

    #[test]
    fn shares_extraction_and_models_by_geometry() {
        let mut cache = ModelCache::new();
        let cfg = ExtractionConfig::paper_default();
        let token = CancelToken::none();

        let (h1, exp1, hit) =
            cache.experiment_for(BusSpec::new(4).build(), &cfg, DriveConfig::paper_default());
        assert!(!hit);
        let (h2, _exp2, hit) =
            cache.experiment_for(BusSpec::new(4).build(), &cfg, DriveConfig::paper_default());
        assert!(hit, "identical geometry must share one extraction");
        assert_eq!(h1, h2);
        assert_eq!(cache.experiments_len(), 1);

        let (h3, _exp3, hit) =
            cache.experiment_for(BusSpec::new(5).build(), &cfg, DriveConfig::paper_default());
        assert!(!hit && h3 != h1, "different geometry must not collide");

        let kind = ModelKind::WVpecGeometric { b: 2 };
        let (m1, hit) = cache.model_for(h1, &exp1, kind, &token).unwrap();
        assert!(!hit);
        let (m2, hit) = cache.model_for(h1, &exp1, kind, &token).unwrap();
        assert!(hit, "same geometry + kind must share one build");
        assert!(Arc::ptr_eq(&m1, &m2));
        // A different kind over the same geometry is a distinct model.
        let (_m3, hit) = cache.model_for(h1, &exp1, ModelKind::Peec, &token).unwrap();
        assert!(!hit);
    }

    #[test]
    fn failed_builds_are_not_cached() {
        let mut cache = ModelCache::new();
        let (h, exp, _) = cache.experiment_for(
            BusSpec::new(3).build(),
            &ExtractionConfig::paper_default(),
            DriveConfig::paper_default(),
        );
        // A fired token fails the full build…
        let fired = CancelToken::new();
        fired.cancel();
        assert!(cache
            .model_for(h, &exp, ModelKind::VpecFull, &fired)
            .is_err());
        // …and the next attempt with a live token still runs (no poisoned
        // cache entry).
        let (m, hit) = cache
            .model_for(h, &exp, ModelKind::VpecFull, &CancelToken::none())
            .unwrap();
        assert!(!hit);
        assert!(m.element_count() > 0);
    }
}
