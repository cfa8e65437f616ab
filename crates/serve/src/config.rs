//! Serving-layer configuration: sharding policy, admission bound, tenant
//! weights — all validated up front with typed errors, mirroring the
//! `streams: 0` fix from the execution layer.

use crate::engine::ServeError;
use simgpu::ExecOptions;

/// How arriving jobs are pinned to devices.
///
/// Every policy is deterministic — given the same trace and fleet width it
/// always produces the same assignment — and none of them affect job
/// *outputs*, only queueing and latency: frame results never depend on which
/// device computed them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPolicy {
    /// Arrival `k` goes to device `k % fleet.len()`. Oblivious and fair in
    /// expectation; ignores queue depth.
    RoundRobin,
    /// Each arrival goes to the device with the fewest outstanding jobs
    /// (waiting + running), breaking ties by the earlier simulated
    /// free-time and then the lower device index. Tracks load on the
    /// simulated clock only — no wall-clock, no estimates.
    LeastLoaded,
    /// Tenant `t` always lands on device `t % fleet.len()`: perfect cache
    /// affinity per tenant, at the price of hot-tenant imbalance.
    StickyByTenant,
}

impl ShardPolicy {
    /// Short stable name used in reports and bench JSON.
    pub fn name(self) -> &'static str {
        match self {
            ShardPolicy::RoundRobin => "round-robin",
            ShardPolicy::LeastLoaded => "least-loaded",
            ShardPolicy::StickyByTenant => "sticky-by-tenant",
        }
    }
}

/// Configuration for one serving run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Job→device pinning policy.
    pub policy: ShardPolicy,
    /// Bound on each device's waiting queue (running job excluded). An
    /// arrival that finds its device's queue at this depth is shed at the
    /// door. Must be at least 1 — a zero-capacity queue would silently shed
    /// every burst, which is a configuration mistake, not a policy.
    pub queue_capacity: usize,
    /// Weight per tenant id (`tenant_weights[t]` is tenant `t`'s share).
    /// Dequeue order minimizes granted-frames/weight, so a weight-3 tenant
    /// gets three frames for every one a weight-1 tenant gets under
    /// contention. Every weight must be nonzero: a zero weight is an
    /// infinite-starvation request and is rejected.
    pub tenant_weights: Vec<u64>,
    /// Execution options forwarded to every per-job [`simgpu::BatchScheduler`]
    /// run (streams, pool, degradation ladder, host cost, cost model). Plan
    /// rewrites are not among them: `serve` runs the plan it is handed, so
    /// optimize it with [`simgpu::optimize`] before serving.
    pub exec: ExecOptions,
}

impl ServeConfig {
    /// A conservative default: round-robin, queue depth 16, one tenant of
    /// weight 1, default execution options.
    pub fn new(policy: ShardPolicy) -> ServeConfig {
        ServeConfig {
            policy,
            queue_capacity: 16,
            tenant_weights: vec![1],
            exec: ExecOptions::default(),
        }
    }

    /// Validate the configuration, rejecting degenerate knobs with typed
    /// [`ServeError::Config`] errors instead of panics or silent no-op runs:
    /// zero queue capacity, an empty tenant table, any zero tenant weight,
    /// and everything [`ExecOptions::validate`] already rejects (e.g.
    /// `streams: 0`). Fleet width is validated where fleets are built —
    /// [`simgpu::Fleet::homogeneous`] rejects `devices: 0` the same way.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.queue_capacity == 0 {
            return Err(ServeError::Config(
                "queue_capacity must be >= 1 (0 would shed every queued arrival)".into(),
            ));
        }
        if self.tenant_weights.is_empty() {
            return Err(ServeError::Config("tenant_weights must name at least one tenant".into()));
        }
        if let Some(t) = self.tenant_weights.iter().position(|&w| w == 0) {
            return Err(ServeError::Config(format!(
                "tenant {t} has weight 0; zero-weight tenants would starve forever"
            )));
        }
        self.exec.validate().map_err(ServeError::Config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        assert!(ServeConfig::new(ShardPolicy::RoundRobin).validate().is_ok());
    }

    #[test]
    fn zero_queue_capacity_is_rejected() {
        let mut cfg = ServeConfig::new(ShardPolicy::RoundRobin);
        cfg.queue_capacity = 0;
        let err = cfg.validate();
        assert!(
            matches!(&err, Err(ServeError::Config(m)) if m.contains("queue_capacity")),
            "{err:?}"
        );
    }

    #[test]
    fn zero_tenant_weight_is_rejected() {
        let mut cfg = ServeConfig::new(ShardPolicy::LeastLoaded);
        cfg.tenant_weights = vec![2, 0, 1];
        let err = cfg.validate();
        assert!(
            matches!(&err, Err(ServeError::Config(m)) if m.contains("tenant 1 has weight 0")),
            "{err:?}"
        );
    }

    #[test]
    fn empty_tenant_table_is_rejected() {
        let mut cfg = ServeConfig::new(ShardPolicy::StickyByTenant);
        cfg.tenant_weights = Vec::new();
        assert!(matches!(cfg.validate(), Err(ServeError::Config(_))));
    }

    #[test]
    fn exec_options_are_validated_too() {
        let mut cfg = ServeConfig::new(ShardPolicy::RoundRobin);
        cfg.exec.streams = 0;
        let err = cfg.validate();
        assert!(matches!(&err, Err(ServeError::Config(m)) if m.contains("streams")), "{err:?}");
    }
}
