//! Service-level counters and latency percentiles, in the same
//! human-readable report style as the estimator's `FitDiagnostics`.

/// Snapshot of a [`ScoreService`](crate::ScoreService)'s lifetime
/// counters and latency distribution.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Requests accepted into the admission queue.
    pub admitted: u64,
    /// Requests rejected with `Busy` backpressure.
    pub rejected: u64,
    /// Requests shed at batch assembly because their deadline had
    /// already passed (no compute spent).
    pub shed: u64,
    /// Deadline breaches: shed requests plus scored requests that
    /// finished past their budget.
    pub deadline_missed: u64,
    /// Per-model predict faults observed across all batches (panics,
    /// typed errors, non-finite scores, timeout breaches).
    pub predict_faults: u64,
    /// Models quarantined out of serving after exhausting their failure
    /// budget.
    pub quarantined: u64,
    /// Micro-batches served.
    pub batches: u64,
    /// Requests answered with scores.
    pub requests_scored: u64,
    /// Requests answered with a failure (degraded ensemble, shutdown).
    pub requests_failed: u64,
    /// Total rows scored.
    pub rows_scored: u64,
    /// Successful hot reloads since the service started.
    pub reloads: u64,
    /// Generation of the pool currently serving (0 before any reload).
    pub pool_epoch: u64,
    /// Models still active (not serve-quarantined).
    pub active_models: usize,
    /// Models in the served ensemble.
    pub total_models: usize,
    /// Median admission-to-response latency of scored requests, in
    /// clock microseconds ([`Clock::now_micros`](crate::Clock::now_micros)).
    pub p50_latency_us: u64,
    /// 99th-percentile latency (nearest-rank, clock µs).
    pub p99_latency_us: u64,
    /// Worst observed latency (clock µs).
    pub max_latency_us: u64,
    /// `p50_latency_us` in whole milliseconds.
    pub p50_latency_ms: u64,
    /// `p99_latency_us` in whole milliseconds.
    pub p99_latency_ms: u64,
    /// `max_latency_us` in whole milliseconds.
    pub max_latency_ms: u64,
    /// EWMA of measured seconds per forecast cost unit; `None` before
    /// the first batch. Multiplied by a batch's unit forecast this
    /// estimates its wall time.
    pub secs_per_unit: Option<f64>,
}

impl std::fmt::Display for ServeReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "serve: {} admitted, {} rejected, {} shed, {} deadline-missed",
            self.admitted, self.rejected, self.shed, self.deadline_missed
        )?;
        writeln!(
            f,
            "  {} batches, {} requests scored ({} failed), {} rows",
            self.batches, self.requests_scored, self.requests_failed, self.rows_scored
        )?;
        writeln!(
            f,
            "  models: {}/{} active, {} predict faults, {} quarantined",
            self.active_models, self.total_models, self.predict_faults, self.quarantined
        )?;
        writeln!(
            f,
            "  pool: epoch {} ({} reloads)",
            self.pool_epoch, self.reloads
        )?;
        write!(
            f,
            "  latency: p50 {}µs, p99 {}µs, max {}µs",
            self.p50_latency_us, self.p99_latency_us, self.max_latency_us
        )?;
        if let Some(spu) = self.secs_per_unit {
            write!(f, ", {spu:.3e}s/unit")?;
        }
        Ok(())
    }
}
