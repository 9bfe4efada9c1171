//! Worker threads: execute application tasks (§IV-A, §IV-D).
//!
//! Each worker multiplexes up to `max_tasks_per_worker` coroutine tasks.
//! It prefers resuming re-readied tasks, then locally runnable ones, then
//! peels chunks from iteration blocks / root tasks. Between scheduling
//! steps it pumps its command sink so aged command blocks and aggregation
//! queues drain (the paper's time-interval flush triggers); the moment it
//! has neither a runnable task nor work to acquire it flushes everything
//! it holds, since every one of its tasks is now waiting on exactly those
//! commands.

use crate::aggregation::CommandSink;
use crate::api::TaskCtx;
use crate::command::Command;
use crate::config::TASK_STACK_SIZE;
use crate::idle::{sleep_idle, wake_comm_on_backlog, IdleEdge};
use crate::metrics::ThreadTracer;
use crate::runtime::NodeShared;
use crate::task::{Itb, ParentRef, ReadyList, RootTask, TaskControl, CHUNK_SLOTS};
use crate::tls;
use gmt_context::{Coroutine, Resume, Stack};
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

/// One live task: its coroutine plus its control block in the op table.
struct Task<'n> {
    coro: Coroutine<()>,
    ctl: &'n TaskControl,
    /// For parFor chunk tasks: the owning iteration block and this
    /// chunk's claimed iteration count. Completion is booked at
    /// retirement — normal *or* panicked — so a panicking iteration body
    /// cannot orphan the parent waiting on the block's ack.
    chunk: Option<(Arc<Itb>, u64)>,
}

struct Worker<'n> {
    node: &'n Arc<NodeShared>,
    /// Channel index of this worker — also its counter shard.
    chan: usize,
    tracer: ThreadTracer,
    /// Wakeups from helpers and the communication server, MPSC onto this
    /// worker.
    ready: Arc<ReadyList>,
    /// Task table; slot indices are stable for a task's lifetime.
    tasks: Vec<Option<Task<'n>>>,
    free_slots: Vec<usize>,
    /// First op-table slot of each chunk this worker claimed: task slot
    /// `i` binds op-table slot `op_chunks[i / CHUNK_SLOTS] + i % CHUNK_SLOTS`,
    /// so `free_slots` is the free list of both.
    op_chunks: Vec<u32>,
    /// Locally runnable slots.
    runnable: VecDeque<usize>,
    /// Recycled coroutine stacks. A stack is made only when this is
    /// empty, so it never holds more than the most tasks the worker had
    /// live at once: keeping them all does not raise its footprint.
    stacks: Vec<Stack>,
    live: usize,
}

impl<'n> Worker<'n> {
    fn new(node: &'n Arc<NodeShared>, chan: usize, tracer: ThreadTracer) -> Self {
        Worker {
            node,
            chan,
            tracer,
            ready: Arc::default(),
            tasks: Vec::new(),
            free_slots: Vec::new(),
            op_chunks: Vec::new(),
            runnable: VecDeque::new(),
            stacks: Vec::new(),
            live: 0,
        }
    }

    fn take_stack(&mut self) -> Stack {
        self.stacks.pop().unwrap_or_else(|| Stack::new(TASK_STACK_SIZE).expect("task stack"))
    }

    /// Takes a free task slot and binds a new task to its op-table slot.
    fn bind_slot(&mut self) -> (usize, &'n TaskControl) {
        let slot = self.free_slots.pop().unwrap_or_else(|| {
            self.tasks.push(None);
            self.tasks.len() - 1
        });
        let ops = &self.node.ops;
        if slot / CHUNK_SLOTS == self.op_chunks.len() {
            self.op_chunks.push(ops.grow(&self.ready, slot));
        }
        let op_slot = self.op_chunks[slot / CHUNK_SLOTS] + (slot % CHUNK_SLOTS) as u32;
        (slot, ops.bind(op_slot))
    }

    fn install(&mut self, slot: usize, task: Task<'n>) {
        debug_assert!(self.tasks[slot].is_none());
        self.tasks[slot] = Some(task);
        self.runnable.push_back(slot);
        self.live += 1;
        self.node.metrics.tasks_spawned.add(self.chan, 1);
        self.node.metrics.live_tasks.inc();
    }

    /// Spawns a task executing the iterations `range` claimed from `itb`.
    fn spawn_chunk(&mut self, itb: Arc<Itb>, range: std::ops::Range<u64>) {
        let (slot, ctl) = self.bind_slot();
        let node = Arc::clone(self.node);
        let token = ctl.token();
        let stack = self.take_stack();
        let n = range.end - range.start;
        let itb2 = Arc::clone(&itb);
        let coro = Coroutine::with_stack(stack, move |y| {
            let ctx = TaskCtx::new(&node, token, y);
            (itb2.body.f)(&ctx, range, &itb2.args);
            // Block completion is booked by the worker at retirement (see
            // `Task::chunk`), not here, so a panic cannot skip it.
        });
        self.install(slot, Task { coro, ctl, chunk: Some((itb, n)) });
    }

    /// Spawns a root task ("task zero").
    fn spawn_root(&mut self, root: RootTask) {
        let (slot, ctl) = self.bind_slot();
        let node = Arc::clone(self.node);
        let token = ctl.token();
        let stack = self.take_stack();
        let f = root.f;
        let coro = Coroutine::with_stack(stack, move |y| {
            let ctx = TaskCtx::new(&node, token, y);
            f(&ctx);
        });
        self.install(slot, Task { coro, ctl, chunk: None });
    }

    /// Resumes the task in `slot` until it yields or finishes.
    fn step(&mut self, slot: usize) {
        let Some(task) = self.tasks[slot].as_mut() else {
            // Nothing queues a retired slot any more: a completion is
            // applied only if its token's generation is the slot's current
            // binding (`OpTable::acquit`), a task queues once per park, and
            // a task that retired with operations pending keeps its slot
            // out of `free_slots`. Were one to show up, ignoring it is
            // safe — `wait_commands` re-checks on wake.
            return;
        };
        self.node.metrics.ctx_switches.add(self.chan, 1);
        let t0 = self.tracer.now_ns();
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| task.coro.resume()));
        self.tracer.span("task_step", t0, slot as u64);
        match outcome {
            Ok(Resume::Yielded) => {
                let ctl = task.ctl;
                if ctl.take_park_intent() {
                    // Blocking yield: run the park handshake; a helper
                    // will push the block onto `ready` on the last reply.
                    if ctl.prepare_park() {
                        // Stamp the park for the stuck-task watchdog.
                        ctl.note_parked(self.node.agg.now_ns());
                        self.node.metrics.task_parks.add(self.chan, 1);
                        self.node.metrics.parked_tasks.inc();
                        self.tracer.instant("park", slot as u64);
                    } else {
                        self.runnable.push_back(slot);
                    }
                } else {
                    // Cooperative yield: round-robin requeue.
                    self.runnable.push_back(slot);
                }
            }
            Ok(Resume::Finished) => self.retire(slot, false),
            Err(payload) => {
                // A panicking task must not take the worker down: report
                // and retire. Root tasks never reach this path — their
                // submission wrapper catches the panic and carries the
                // payload back to the submitter, which resumes it with
                // the original message.
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "<non-string panic payload>".into());
                eprintln!(
                    "[gmt] task panicked on node {} and was retired: {msg}",
                    self.node.node_id
                );
                self.retire(slot, true);
            }
        }
    }

    fn retire(&mut self, slot: usize, panicked: bool) {
        let mut task = self.tasks[slot].take().expect("retiring live slot");
        if let Some((itb, n)) = task.chunk.take() {
            // Book the chunk against its iteration block whether the body
            // finished or panicked: the parent parFor waits for an ack of
            // the *block*, and a panicked chunk that never acked would
            // hang it forever. Iterations lost to a panic are logged (and
            // counted in `tasks_panicked`) but still count as executed
            // toward the block.
            if itb.complete(n) {
                notify_parent(self.node, itb.parent);
            }
        }
        self.node.metrics.tasks_finished.add(self.chan, 1);
        if panicked {
            self.node.metrics.tasks_panicked.add(self.chan, 1);
        }
        self.node.metrics.live_tasks.dec();
        self.live -= 1;
        if task.ctl.pending() > 0 {
            // The task finished with operations still in flight (it never
            // awaited them — possible with `put_nb`/`get_nb` misuse, or a
            // dead link). Late replies may still write through raw
            // pointers into this stack and complete through its op-table
            // slot, so leak both rather than recycle.
            eprintln!(
                "[gmt] node {}: task retired with {} operation(s) still pending; leaking its stack",
                self.node.node_id,
                task.ctl.pending()
            );
            std::mem::forget(task.coro);
            return;
        }
        self.node.ops.release(task.ctl);
        self.free_slots.push(slot);
        if !panicked {
            self.stacks.push(task.coro.into_stack());
        }
    }

    /// Whether this worker may take on new work right now. The cap is
    /// soft: when every live task is blocked we admit more work anyway,
    /// which keeps nested parFors deadlock-free (parents waiting on
    /// children must not starve the children of task slots).
    fn can_admit(&self) -> bool {
        self.live < self.node.config.max_tasks_per_worker
            || (self.runnable.is_empty() && self.ready.is_empty())
    }

    /// Tries to create one task from the node's pending work sources.
    fn acquire_work(&mut self) -> bool {
        if !self.can_admit() {
            return false;
        }
        if let Some(root) = self.node.root_queue.pop() {
            self.spawn_root(root);
            return true;
        }
        if let Some(itb) = self.node.itb_queue.pop() {
            if let Some(range) = itb.claim() {
                self.node.metrics.itb_claims.add(self.chan, 1);
                if itb.has_unclaimed() {
                    // Let other workers keep peeling this block (the push
                    // wakes them: the wake cascades from claimer to claimer).
                    self.node.itb_queue.push(Arc::clone(&itb));
                }
                self.spawn_chunk(itb, range);
                return true;
            }
            // Fully claimed: drop our reference.
        }
        false
    }
}

/// Reports a finished iteration block to its parent task.
pub(crate) fn notify_parent(node: &Arc<NodeShared>, parent: ParentRef) {
    if parent.node == node.node_id {
        // A local block is counted toward this node itself. Its parent
        // may run on another worker, asleep.
        let unit = node.ops.acquit(parent.token, parent.node, 1);
        debug_assert!(unit.is_some(), "a local block's parent waits for it");
        drop(unit);
        node.sleepers.workers.wake_all();
    } else {
        tls::with_sink(|s| s.emit(parent.node, &Command::Ack { token: parent.token }));
    }
}

/// Entry point of a worker thread. `chan` doubles as the index of this
/// worker's channel queue to the communication server.
pub fn worker_main(node: Arc<NodeShared>, chan: usize, tracer: ThreadTracer) {
    tls::install(CommandSink::new(Arc::clone(&node.agg), chan));
    let me = node.sleepers.workers.get(chan);
    me.register();
    node.agg.channel(chan).wake_on_return(me.waker());
    let mut w = Worker::new(&node, chan, tracer);
    let mut edge = IdleEdge::default();
    loop {
        let mut progressed = false;
        // 1. Wakeups, all that landed since the last pass in one take.
        let woken = w.ready.take_into(&w.node.ops, &mut w.runnable);
        if woken > 0 {
            w.node.metrics.wakeups.add(w.chan, woken as u64);
            // One entry per park: whoever cleared the task's parked flag
            // queued it, once, and it cannot retire before it ran again.
            w.node.metrics.parked_tasks.add(-(woken as i64));
        }
        // 2. Run one task step.
        if let Some(slot) = w.runnable.pop_front() {
            w.step(slot);
            progressed = true;
        } else if w.acquire_work() {
            progressed = true;
        }
        // 3. Flush aged command blocks / aggregation queues.
        tls::with_sink(|s| s.pump());
        wake_comm_on_backlog(&node, chan);
        if progressed {
            edge.busy();
            continue;
        }
        if w.node.stopping() {
            break;
        }
        // 4. No runnable task, nothing to acquire: every live task is
        // parked on a reply, so ship what they are waiting for now, then
        // sleep until a wake-up, a root task or an iteration block.
        let ready = &w.ready;
        let has_work =
            || !ready.is_empty() || !node.root_queue.is_empty() || !node.itb_queue.is_empty();
        if sleep_idle(&node, chan, me, &mut edge, has_work) {
            node.metrics.worker_sleeps.add(chan, 1);
        }
    }
    // Flush whatever is left so in-flight protocols can drain elsewhere.
    if let Some(mut sink) = tls::uninstall() {
        sink.flush_all();
    }
    // Tasks still waiting on replies at shutdown are *leaked*, not
    // cancelled: a late reply writes through raw pointers into the task's
    // stack, so freeing that stack while helpers may still run would be a
    // use-after-free. Orderly programs (every `run` joined before
    // `shutdown`) never hit this path.
    let mut leaked = 0usize;
    for slot in 0..w.tasks.len() {
        if let Some(task) = w.tasks[slot].take() {
            if task.ctl.pending() > 0 {
                std::mem::forget(task);
                leaked += 1;
            } else {
                w.node.ops.release(task.ctl);
            }
        }
    }
    if leaked > 0 {
        eprintln!(
            "[gmt] node {}: leaked {leaked} task(s) still blocked on remote replies at shutdown",
            w.node.node_id
        );
    }
}
