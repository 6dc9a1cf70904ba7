//! A small deterministic discrete-event engine.
//!
//! The paper's simulator (§5.2) models threads that "allocate the processor
//! and the node's network adapter for some time for an RPC call". This
//! engine provides exactly those primitives:
//!
//! * [`Resource`] — a FIFO single server (a CPU, a NIC, the network
//!   fabric): using it for `d` microseconds occupies it exclusively;
//!   concurrent users queue.
//! * [`Step`] — one element of a task chain: seize a resource or wait a
//!   pure delay (propagation latency occupies nothing).
//! * Task chains with **fork/join** — a write op forks one chain per
//!   redundant-node `add` and completes when all join.
//!
//! Events are processed in strictly increasing virtual time with a
//! deterministic tiebreak, so identical configurations always produce
//! identical results.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Identifies a resource registered with the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResourceId(pub usize);

/// One step of a task chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Step {
    /// Seize `resource` exclusively for `us` microseconds (queuing FIFO
    /// behind earlier users).
    Use {
        /// The resource to seize.
        resource: ResourceId,
        /// Service time in microseconds.
        us: f64,
    },
    /// Pure delay (e.g. wire propagation): occupies nothing.
    Delay {
        /// Delay in microseconds.
        us: f64,
    },
}

/// A chain of steps executed sequentially.
pub type Chain = Vec<Step>;

#[derive(Debug)]
struct Task {
    chain: Chain,
    next_step: usize,
    join: usize, // join-group id
}

#[derive(Debug)]
struct JoinGroup {
    remaining: usize,
    token: u64, // caller's correlation token, reported on completion
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct TimeKey(f64);

impl Eq for TimeKey {}
#[allow(
    clippy::derive_ord_xor_partial_ord,
    reason = "PartialEq agrees with this order on the finite times the engine keys by"
)]
impl Ord for TimeKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).expect("finite times only")
    }
}
impl PartialOrd for TimeKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The deterministic discrete-event engine.
///
/// Drive it by registering resources, spawning join groups of task chains,
/// and repeatedly calling [`Engine::next_completion`]; each completion
/// reports the caller's token, at which point the caller typically spawns
/// the next chains (closed-loop workload).
#[derive(Debug)]
pub struct Engine {
    now: f64,
    seq: u64,
    heap: BinaryHeap<Reverse<(TimeKey, u64, usize)>>, // (time, tiebreak, task)
    resources: Vec<f64>, // next-free time per resource
    tasks: Vec<Task>,
    joins: Vec<JoinGroup>,
    free_joins: Vec<usize>,
}

impl Engine {
    /// A fresh engine at virtual time zero.
    pub fn new() -> Self {
        Engine {
            now: 0.0,
            seq: 0,
            heap: BinaryHeap::new(),
            resources: Vec::new(),
            tasks: Vec::new(),
            joins: Vec::new(),
            free_joins: Vec::new(),
        }
    }

    /// Current virtual time in microseconds.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Registers a FIFO resource and returns its id.
    pub fn add_resource(&mut self) -> ResourceId {
        self.resources.push(0.0);
        ResourceId(self.resources.len() - 1)
    }

    /// Fraction of `[0, self.now()]` during which `r` was busy — resource
    /// utilization, used to find the saturating bottleneck.
    pub fn utilization_hint(&self, r: ResourceId) -> f64 {
        if self.now <= 0.0 {
            0.0
        } else {
            (self.resources[r.0] / self.now).min(1.0)
        }
    }

    /// Spawns a group of chains starting now; when **all** complete, the
    /// group's completion is reported with `token`.
    ///
    /// # Panics
    ///
    /// Panics if `chains` is empty — a join group must contain work.
    pub fn spawn_group(&mut self, chains: Vec<Chain>, token: u64) {
        assert!(!chains.is_empty(), "join group needs at least one chain");
        let join = match self.free_joins.pop() {
            Some(j) => {
                self.joins[j] = JoinGroup {
                    remaining: chains.len(),
                    token,
                };
                j
            }
            None => {
                self.joins.push(JoinGroup {
                    remaining: chains.len(),
                    token,
                });
                self.joins.len() - 1
            }
        };
        for chain in chains {
            let id = self.tasks.len();
            self.tasks.push(Task {
                chain,
                next_step: 0,
                join,
            });
            self.schedule(self.now, id);
        }
    }

    fn schedule(&mut self, at: f64, task: usize) {
        self.seq += 1;
        self.heap.push(Reverse((TimeKey(at), self.seq, task)));
    }

    /// Advances the simulation until the next join group completes,
    /// returning `(completion_time_us, token)`; `None` when idle.
    pub fn next_completion(&mut self) -> Option<(f64, u64)> {
        while let Some(Reverse((TimeKey(at), _, task_id))) = self.heap.pop() {
            self.now = self.now.max(at);
            // Execute as many steps as possible; each Use/Delay schedules a
            // wake-up at its end.
            let task = &mut self.tasks[task_id];
            if task.next_step >= task.chain.len() {
                // Chain finished: join bookkeeping.
                let j = task.join;
                self.joins[j].remaining -= 1;
                if self.joins[j].remaining == 0 {
                    let token = self.joins[j].token;
                    self.free_joins.push(j);
                    return Some((self.now, token));
                }
                continue;
            }
            let step = task.chain[task.next_step];
            task.next_step += 1;
            let wake = match step {
                Step::Delay { us } => self.now + us,
                Step::Use { resource, us } => {
                    let start = self.resources[resource.0].max(self.now);
                    let end = start + us;
                    self.resources[resource.0] = end;
                    end
                }
            };
            self.schedule(wake, task_id);
        }
        None
    }

    /// Runs until fully idle, invoking `on_complete(time, token)` for every
    /// group completion; the callback may spawn further groups.
    pub fn run<F: FnMut(&mut Engine, f64, u64)>(&mut self, mut on_complete: F) {
        while let Some((t, token)) = self.next_completion() {
            on_complete(self, t, token);
        }
    }
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_chain_timing_adds_up() {
        let mut e = Engine::new();
        let cpu = e.add_resource();
        e.spawn_group(
            vec![vec![
                Step::Use { resource: cpu, us: 10.0 },
                Step::Delay { us: 5.0 },
                Step::Use { resource: cpu, us: 10.0 },
            ]],
            1,
        );
        let (t, token) = e.next_completion().unwrap();
        assert_eq!(token, 1);
        assert!((t - 25.0).abs() < 1e-9);
        assert!(e.next_completion().is_none());
    }

    #[test]
    fn resource_contention_serializes() {
        let mut e = Engine::new();
        let nic = e.add_resource();
        // Two chains each need the NIC for 10 µs: the second queues.
        e.spawn_group(vec![vec![Step::Use { resource: nic, us: 10.0 }]], 1);
        e.spawn_group(vec![vec![Step::Use { resource: nic, us: 10.0 }]], 2);
        let (t1, _) = e.next_completion().unwrap();
        let (t2, _) = e.next_completion().unwrap();
        assert!((t1 - 10.0).abs() < 1e-9);
        assert!((t2 - 20.0).abs() < 1e-9);
    }

    #[test]
    fn delays_do_not_contend() {
        let mut e = Engine::new();
        e.spawn_group(vec![vec![Step::Delay { us: 10.0 }]], 1);
        e.spawn_group(vec![vec![Step::Delay { us: 10.0 }]], 2);
        let (t1, _) = e.next_completion().unwrap();
        let (t2, _) = e.next_completion().unwrap();
        assert!((t1 - 10.0).abs() < 1e-9);
        assert!((t2 - 10.0).abs() < 1e-9, "delays run in parallel");
    }

    #[test]
    fn fork_join_waits_for_slowest() {
        let mut e = Engine::new();
        let a = e.add_resource();
        let b = e.add_resource();
        e.spawn_group(
            vec![
                vec![Step::Use { resource: a, us: 5.0 }],
                vec![Step::Use { resource: b, us: 30.0 }],
            ],
            9,
        );
        let (t, token) = e.next_completion().unwrap();
        assert_eq!(token, 9);
        assert!((t - 30.0).abs() < 1e-9);
    }

    #[test]
    fn closed_loop_spawning_from_callback() {
        // One thread doing 5 sequential 10 µs ops via the run() callback.
        let mut e = Engine::new();
        let cpu = e.add_resource();
        let mut completed = 0u64;
        e.spawn_group(vec![vec![Step::Use { resource: cpu, us: 10.0 }]], 0);
        let mut last_t = 0.0;
        e.run(|e, t, token| {
            completed += 1;
            last_t = t;
            if token < 4 {
                e.spawn_group(vec![vec![Step::Use { resource: cpu, us: 10.0 }]], token + 1);
            }
        });
        assert_eq!(completed, 5);
        assert!((last_t - 50.0).abs() < 1e-9);
    }

    #[test]
    fn determinism_across_runs() {
        let build = || {
            let mut e = Engine::new();
            let r1 = e.add_resource();
            let r2 = e.add_resource();
            for i in 0..20 {
                e.spawn_group(
                    vec![vec![
                        Step::Use { resource: r1, us: 3.0 + (i % 3) as f64 },
                        Step::Delay { us: 1.0 },
                        Step::Use { resource: r2, us: 2.0 },
                    ]],
                    i,
                );
            }
            let mut log = Vec::new();
            e.run(|_, t, tok| log.push((t.to_bits(), tok)));
            log
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn utilization_hint_reflects_busy_fraction() {
        let mut e = Engine::new();
        let cpu = e.add_resource();
        e.spawn_group(
            vec![vec![
                Step::Use { resource: cpu, us: 10.0 },
                Step::Delay { us: 30.0 },
            ]],
            0,
        );
        e.run(|_, _, _| {});
        assert!((e.now() - 40.0).abs() < 1e-9);
        assert!((e.utilization_hint(cpu) - 0.25).abs() < 1e-9);
    }
}
