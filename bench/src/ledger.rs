//! The per-event cost ledger: what one input event costs end to end
//! (`1e9 / throughput_eps`), the part the isolated layer probes explain, and
//! the remainder they do not — scheduler, wake-ups, feeders, cross-thread
//! effects, and on a paced workload the time the system simply waits for
//! input. The remainder is defined by subtraction, so the lines always sum
//! to the total; it may be negative when the probes (which run alone, with
//! warm caches) overstate what the layers cost inside the running system.

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostLedger {
    /// `1e9 / throughput_eps`.
    pub total_ns_per_event: f64,
    /// `WorkerCore::handle` through a single-thread pump: mailbox, fork/join
    /// protocol and `update`, no channels and no threads.
    pub worker_ns_per_event: f64,
    /// One send and one receive on the edge plane per handled message.
    pub edge_ns_per_event: f64,
    pub remainder_ns_per_event: f64,
    pub remainder_share: f64,
}

pub fn cost_ledger(
    throughput_eps: f64,
    worker_pump_ns_per_event: f64,
    edge_ns_per_msg: f64,
    msgs_per_event: f64,
) -> CostLedger {
    let total = 1e9 / throughput_eps;
    let edge = edge_ns_per_msg * msgs_per_event;
    let remainder = total - worker_pump_ns_per_event - edge;
    CostLedger {
        total_ns_per_event: total,
        worker_ns_per_event: worker_pump_ns_per_event,
        edge_ns_per_event: edge,
        remainder_ns_per_event: remainder,
        remainder_share: remainder / total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_sum_to_the_total_by_construction() {
        let l = cost_ledger(4_000_000.0, 90.0, 25.0, 1.8);
        assert_eq!(l.total_ns_per_event, 250.0);
        assert_eq!(l.edge_ns_per_event, 45.0);
        assert_eq!(l.remainder_ns_per_event, 250.0 - 90.0 - 45.0);
        assert_eq!(
            l.worker_ns_per_event + l.edge_ns_per_event + l.remainder_ns_per_event,
            l.total_ns_per_event
        );
        assert_eq!(l.remainder_share, 115.0 / 250.0);
    }

    #[test]
    fn an_overstating_probe_shows_as_a_negative_remainder() {
        let l = cost_ledger(10_000_000.0, 120.0, 10.0, 1.0);
        assert_eq!(l.remainder_ns_per_event, -30.0);
        assert_eq!(l.remainder_share, -0.3);
    }
}
