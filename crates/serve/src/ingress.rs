//! The batched ingress queue: admission-checked enqueue, batched
//! drain through [`HcdService::try_query_batch`].
//!
//! The queue decouples arrival from execution so the service can
//! answer reads in large single-region batches (amortizing the
//! snapshot load and the parallel-region setup) while shedding excess
//! load *at the door*:
//!
//! * [`IngressQueue::try_enqueue`] is where admission control runs —
//!   an expired deadline or a queue at its watermark is refused with a
//!   typed [`Rejected`] before any snapshot is touched;
//! * [`IngressQueue::try_drain_batch`] pops up to a batch of pending
//!   requests, sheds the ones whose deadline expired while queued, and
//!   answers the rest from **one** snapshot in one `serve.query.batch`
//!   region. Tickets (monotone admission numbers) let callers match
//!   answers back to their requests.

use std::collections::VecDeque;

use hcd_par::{intern, Deadline, Executor, ParError};
use parking_lot::Mutex;

use crate::admission::{AdmissionConfig, Rejected};
use crate::service::{HcdService, Query, QueryAnswer};

/// One admitted, not-yet-drained request.
#[derive(Debug, Clone, Copy)]
struct Pending {
    ticket: u64,
    query: Query,
    deadline: Option<Deadline>,
}

/// Counter names the queue ticks, all under one prefix.
#[derive(Debug, Clone, Copy)]
struct IngressNames {
    enqueued: &'static str,
    shed_overloaded: &'static str,
    shed_deadline: &'static str,
    depth: &'static str,
}

impl IngressNames {
    /// Every name under `prefix` (`"serve"` or `"serve.<tenant>"`),
    /// interned.
    fn new(prefix: &str) -> IngressNames {
        let n = |suffix: &str| intern(&format!("{prefix}.{suffix}"));
        IngressNames {
            enqueued: n("ingress.enqueued"),
            shed_overloaded: n("shed.overloaded"),
            shed_deadline: n("shed.deadline"),
            depth: n("ingress.depth"),
        }
    }
}

struct QueueState {
    pending: VecDeque<Pending>,
    next_ticket: u64,
}

/// What one drain accomplished.
#[derive(Debug, Clone, PartialEq)]
pub struct DrainReport {
    /// Generation of the snapshot the batch was answered from (the
    /// current generation when nothing was answered).
    pub generation: u64,
    /// `(ticket, answer)` pairs in admission order.
    pub answered: Vec<(u64, QueryAnswer)>,
    /// Requests dropped at drain time because their deadline expired
    /// while they sat in the queue.
    pub shed_deadline: u64,
}

/// See the module docs.
pub struct IngressQueue {
    state: Mutex<QueueState>,
    cfg: AdmissionConfig,
    names: IngressNames,
}

impl IngressQueue {
    /// A queue using the global (single-tenant) counter names.
    pub fn new(cfg: AdmissionConfig) -> Self {
        Self::with_prefix(cfg, "serve")
    }

    /// A queue ticking `serve.<tenant>.shed.*` / `.ingress.*` counters.
    pub fn for_tenant(cfg: AdmissionConfig, tenant: &str) -> Self {
        Self::with_prefix(cfg, &format!("serve.{tenant}"))
    }

    fn with_prefix(cfg: AdmissionConfig, prefix: &str) -> Self {
        IngressQueue {
            state: Mutex::new(QueueState {
                pending: VecDeque::new(),
                next_ticket: 0,
            }),
            cfg,
            names: IngressNames::new(prefix),
        }
    }

    /// The configured admission knobs.
    pub fn config(&self) -> AdmissionConfig {
        self.cfg
    }

    /// Current queue depth.
    pub fn depth(&self) -> usize {
        self.state.lock().pending.len()
    }

    /// Admission control + enqueue. On success returns the monotone
    /// admission ticket. On [`Rejected`], **no work happened**: no
    /// snapshot load, no WAL traffic, no query counter — only the
    /// matching `serve.shed.*` counter ticked.
    pub fn try_enqueue(
        &self,
        query: Query,
        deadline: Option<Deadline>,
        exec: &Executor,
    ) -> Result<u64, Rejected> {
        let deadline = self.cfg.deadline_for(deadline);
        if deadline.as_ref().is_some_and(Deadline::expired) {
            exec.add_counter(self.names.shed_deadline, 1);
            return Err(Rejected::DeadlineExceeded);
        }
        let mut state = self.state.lock();
        let depth = state.pending.len();
        if depth >= self.cfg.watermark {
            drop(state);
            exec.add_counter(self.names.shed_overloaded, 1);
            return Err(Rejected::Overloaded {
                depth,
                watermark: self.cfg.watermark,
            });
        }
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        state.pending.push_back(Pending {
            ticket,
            query,
            deadline,
        });
        let depth_after = state.pending.len() as u64;
        drop(state);
        exec.add_counter(self.names.enqueued, 1);
        exec.gauge(self.names.depth, depth_after);
        Ok(ticket)
    }

    /// Pops up to `max` pending requests, sheds the ones whose
    /// deadline expired while queued, and answers the rest from one
    /// snapshot via [`HcdService::try_query_batch`]. An error leaves
    /// the *drained* requests consumed (their deadline budget is
    /// spent either way) and the rest of the queue intact.
    pub fn try_drain_batch(
        &self,
        svc: &HcdService,
        max: usize,
        exec: &Executor,
    ) -> Result<DrainReport, ParError> {
        let drained: Vec<Pending> = {
            let mut state = self.state.lock();
            let take = max.min(state.pending.len());
            state.pending.drain(..take).collect()
        };
        let mut live: Vec<Pending> = Vec::with_capacity(drained.len());
        let mut shed_deadline = 0u64;
        for p in drained {
            if p.deadline.as_ref().is_some_and(Deadline::expired) {
                shed_deadline += 1;
            } else {
                live.push(p);
            }
        }
        if shed_deadline > 0 {
            exec.add_counter(self.names.shed_deadline, shed_deadline);
        }
        if live.is_empty() {
            return Ok(DrainReport {
                generation: svc.generation(),
                answered: Vec::new(),
                shed_deadline,
            });
        }
        let queries: Vec<Query> = live.iter().map(|p| p.query).collect();
        let batch = svc.try_query_batch(&queries, exec)?;
        let answered = live.iter().map(|p| p.ticket).zip(batch.answers).collect();
        Ok(DrainReport {
            generation: batch.generation,
            answered,
            shed_deadline,
        })
    }
}

impl std::fmt::Debug for IngressQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "IngressQueue(depth={}, watermark={})",
            self.depth(),
            self.cfg.watermark
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcd_graph::GraphBuilder;
    use std::time::Duration;

    fn svc(exec: &Executor) -> HcdService {
        let g = GraphBuilder::new()
            .edges([(0, 1), (1, 2), (2, 0), (2, 3)])
            .build();
        HcdService::try_new(&g, exec).unwrap()
    }

    #[test]
    fn enqueue_drain_round_trips_in_admission_order() {
        let exec = Executor::sequential();
        let svc = svc(&exec);
        let q = IngressQueue::new(AdmissionConfig::default());
        let t0 = q.try_enqueue(Query::InKCore(0, 2), None, &exec).unwrap();
        let t1 = q.try_enqueue(Query::InKCore(3, 2), None, &exec).unwrap();
        assert_eq!((t0, t1), (0, 1));
        assert_eq!(q.depth(), 2);
        let r = q.try_drain_batch(&svc, 16, &exec).unwrap();
        assert_eq!(q.depth(), 0);
        assert_eq!(r.shed_deadline, 0);
        assert_eq!(
            r.answered,
            vec![
                (0, QueryAnswer::InKCore(true)),
                (1, QueryAnswer::InKCore(false)),
            ]
        );
    }

    #[test]
    fn watermark_sheds_with_typed_overload() {
        let exec = Executor::sequential().with_metrics();
        let q = IngressQueue::new(AdmissionConfig {
            watermark: 2,
            default_deadline: None,
        });
        q.try_enqueue(Query::InKCore(0, 1), None, &exec).unwrap();
        q.try_enqueue(Query::InKCore(1, 1), None, &exec).unwrap();
        let err = q
            .try_enqueue(Query::InKCore(2, 1), None, &exec)
            .unwrap_err();
        assert_eq!(
            err,
            Rejected::Overloaded {
                depth: 2,
                watermark: 2
            }
        );
        let m = exec.take_metrics();
        assert_eq!(m.get_counter("serve.shed.overloaded").unwrap().value, 1);
        assert_eq!(m.get_counter("serve.ingress.enqueued").unwrap().value, 2);
        // The shed request never became a query.
        assert!(m.get_counter("serve.queries").is_none());
    }

    #[test]
    fn expired_deadlines_shed_at_the_door_and_at_drain() {
        let exec = Executor::sequential().with_metrics();
        let svc = svc(&exec);
        let q = IngressQueue::new(AdmissionConfig::default());
        let expired = Deadline::from_now(Duration::ZERO);
        assert_eq!(
            q.try_enqueue(Query::InKCore(0, 1), Some(expired), &exec),
            Err(Rejected::DeadlineExceeded)
        );
        // Admit with a deadline that expires while queued.
        let soon = Deadline::from_now(Duration::from_millis(1));
        q.try_enqueue(Query::InKCore(0, 1), Some(soon), &exec)
            .unwrap();
        std::thread::sleep(Duration::from_millis(5));
        let r = q.try_drain_batch(&svc, 16, &exec).unwrap();
        assert_eq!(r.shed_deadline, 1);
        assert!(r.answered.is_empty());
        let m = exec.take_metrics();
        assert_eq!(m.get_counter("serve.shed.deadline").unwrap().value, 2);
    }

    #[test]
    fn tenant_queues_tick_namespaced_counters() {
        let exec = Executor::sequential().with_metrics();
        let q = IngressQueue::for_tenant(
            AdmissionConfig {
                watermark: 1,
                default_deadline: None,
            },
            "acme",
        );
        q.try_enqueue(Query::InKCore(0, 1), None, &exec).unwrap();
        let _ = q.try_enqueue(Query::InKCore(1, 1), None, &exec);
        let m = exec.take_metrics();
        assert_eq!(
            m.get_counter("serve.acme.ingress.enqueued").unwrap().value,
            1
        );
        assert_eq!(
            m.get_counter("serve.acme.shed.overloaded").unwrap().value,
            1
        );
        assert!(m.get_counter("serve.shed.overloaded").is_none());
    }
}
