//! The round executor.
//!
//! Drives a set of [`MachineLogic`] programs through synchronous rounds,
//! enforcing the model's bounds at the two places Definition 2.1 states
//! them: memory at delivery (`Σ incoming ≤ s`) and oracle queries inside
//! the round (`≤ q` per machine). Machines of one round run in parallel
//! (they are independent by definition); routing is then sequenced in
//! machine order, so runs are deterministic.
//!
//! # One round engine
//!
//! [`Simulation::step`] and [`Simulation::step_shard`] run one round body
//! over a machine range `[lo, hi)`: the delivery-time memory check, the
//! parallel compute region, the first-violation fold, recipient and
//! sender-side `s` validation, the round's statistics and its telemetry
//! exist once. The two differ only in where a validated send goes: `step`
//! runs `[0, m)` and routes each send locally as an arena coordinate;
//! `step_shard` extracts each send as an owned [`Message`] for a shard
//! supervisor to route. The fault plan is a layer over the same body —
//! crash-stops and due stragglers at round start, oracle outages during
//! compute, and a per-send filter in front of delivery — and a round
//! without an active plan is compiled without it.
//!
//! # The arena message plane
//!
//! Payloads never live in per-message heap allocations (see
//! `docs/MESSAGE_PLANE.md`). Senders append payload bits into their
//! [`Outbox`]'s own arena `BitVec`; the two-pass router validates the
//! model's bounds over send *records*, then delivers by handing each
//! recipient `(sender, offset, len)` coordinates straight into the sender
//! arenas — delivery moves no payload bit. A machine's memory image is its
//! list of [`InboxEntry`] coordinates, surfaced as a zero-copy [`Inbox`];
//! the written outbox plane stays alive (read-only) through the next round,
//! ping-ponging with the plane being written. An auxiliary per-round arena
//! holds the payloads with no live sender outbox: input seeds, straggler
//! deliveries, restored snapshots and shard batches. Steady state
//! allocates nothing: both outbox planes, the auxiliary arena, and the
//! entry lists all recycle their buffers.

use crate::error::ModelViolation;
use crate::faults::{FaultKind, FaultPlan};
use crate::machine::{MachineLogic, Outbox, RoundCtx, SendRecord};
use crate::message::{Inbox, InboxEntry, MachineId, Message};
use crate::snapshot::{FaultSnapshot, SimulationSnapshot};
use crate::soa::{compute_min_len, MemoryImages};
use crate::stats::{RoundStats, SimStats};
use mph_bits::BitVec;
use mph_metrics::{emit, Event, MetricsSink};
use mph_oracle::{Oracle, RandomTape, SnapshotError};
use rayon::prelude::*;
use std::sync::Arc;

/// Why a run stopped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// At least one machine emitted an output; `rounds` is the number of
    /// completed rounds (the paper's `R`).
    Completed {
        /// Number of rounds executed, including the output round.
        rounds: usize,
    },
    /// The round limit was reached without any output.
    RoundLimit {
        /// The limit that was hit.
        limit: usize,
    },
}

/// The result of a run: outcome, outputs, and instrumentation.
#[derive(Debug)]
pub struct RunResult {
    /// Why the run stopped.
    pub outcome: RunOutcome,
    /// Output contributions `(machine, bits)` in machine order — the
    /// "union of outputs of all the machines" of Definition 2.4.
    pub outputs: Vec<(MachineId, BitVec)>,
    /// Per-round statistics.
    pub stats: SimStats,
}

impl RunResult {
    /// The number of rounds executed.
    pub fn rounds(&self) -> usize {
        self.stats.num_rounds()
    }

    /// True if the run produced at least one output within the limit.
    pub fn completed(&self) -> bool {
        matches!(self.outcome, RunOutcome::Completed { .. })
    }

    /// The single output of a run that produced *exactly one* output
    /// contribution.
    ///
    /// Returns `None` both when no machine emitted and when several did;
    /// use [`RunResult::output_count`] to tell the cases apart, or
    /// [`RunResult::unanimous_output`] when several machines are expected
    /// to emit the same answer (e.g. replicated protocols).
    pub fn sole_output(&self) -> Option<&BitVec> {
        match self.outputs.as_slice() {
            [(_, bits)] => Some(bits),
            _ => None,
        }
    }

    /// How many output contributions the run produced.
    pub fn output_count(&self) -> usize {
        self.outputs.len()
    }

    /// The common payload when the run produced at least one output and
    /// every contribution agrees bit-for-bit — the natural notion of "the
    /// output" for replicated protocols, where each surviving replica
    /// emits its own copy of the answer (Definition 2.4 takes the union of
    /// machine outputs, and a union of identical strings is one string).
    pub fn unanimous_output(&self) -> Option<&BitVec> {
        let ((_, first), rest) = self.outputs.split_first()?;
        rest.iter().all(|(_, bits)| bits == first).then_some(first)
    }
}

/// Mutable per-run fault bookkeeping paired with an installed
/// [`FaultPlan`].
struct FaultState {
    plan: FaultPlan,
    /// Which machines have crash-stopped so far.
    crashed: Vec<bool>,
    /// Straggler-delayed messages as `(deliver_round, message)`. Delayed
    /// payloads are the one place in-flight bits own their allocation: a
    /// straggling message outlives the round arena it was born in.
    delayed: Vec<(usize, Message)>,
}

impl FaultState {
    /// The per-send filter in front of delivery: whether send `idx` of
    /// machine `from` reaches its recipient this round.
    ///
    /// A crashed recipient's memory no longer exists. Self-messages model
    /// local memory persistence, not network traffic, so network faults
    /// never touch them. Any other send may be dropped, held back because
    /// its sender straggles (the one materialization point: a delayed
    /// payload outlives the outbox plane it was born in), or corrupted in
    /// place — each send record owns its own arena range, so no other
    /// delivery can alias the flipped bit.
    fn admit(
        &mut self,
        round: usize,
        from: MachineId,
        idx: usize,
        outbox: &mut Outbox,
        metrics: &Option<Arc<dyn MetricsSink>>,
    ) -> bool {
        let send = outbox.sends()[idx];
        if self.crashed[send.to] {
            return false;
        }
        if send.to == from {
            return true;
        }
        if self.plan.drops_message(round, from, idx) {
            observe_fault(metrics, FaultKind::MessageDropped, from, round);
            return false;
        }
        if self.plan.straggles(from, round) {
            observe_fault(metrics, FaultKind::StragglerDelay, from, round);
            let payload = outbox.payload(&send).to_bitvec();
            let deliver = round + 1 + self.plan.straggler_delay();
            self.delayed.push((deliver, Message { from, to: send.to, payload }));
            return false;
        }
        if send.len > 0 && self.plan.corrupts_message(round, from, idx) {
            let bit = self.plan.corruption_bit(round, from, idx, send.len);
            outbox.flip_payload_bit(send.offset + bit);
            observe_fault(metrics, FaultKind::MessageCorrupted, from, round);
        }
        true
    }
}

/// The fault plan as one round sees it. The round body is compiled once
/// per layer, so with [`NoFaults`] every fault site — round-start crashes
/// and stragglers, compute-time outages, the per-send filter — is
/// statically absent: a fault-free round pays nothing for the plan, not
/// even a per-send branch.
trait FaultLayer {
    /// The active fault state, or `None` for a fault-free round.
    fn active(&mut self) -> Option<&mut FaultState>;
}

/// No fault plan, or an inert one.
struct NoFaults;

impl FaultLayer for NoFaults {
    fn active(&mut self) -> Option<&mut FaultState> {
        None
    }
}

impl FaultLayer for FaultState {
    fn active(&mut self) -> Option<&mut FaultState> {
        Some(self)
    }
}

/// Where a validated send goes — the one point at which the in-process
/// round and the extracting shard round differ.
trait Delivery {
    /// Delivers `send` of machine `from`, whose payload lives in
    /// `outbox`'s arena, either into `next` (next round's memory images)
    /// or out of the simulation.
    fn deliver(
        &mut self,
        next: &mut MemoryImages,
        from: MachineId,
        send: SendRecord,
        outbox: &Outbox,
    );
}

/// In-process delivery ([`Simulation::step`]): the recipient's next image
/// gains a coordinate into the sender's arena; no payload bit moves.
struct Route;

impl Delivery for Route {
    fn deliver(&mut self, next: &mut MemoryImages, from: MachineId, send: SendRecord, _: &Outbox) {
        next.push(send.to, InboxEntry { from, offset: send.offset, len: send.len, aux: false });
    }
}

/// Extracting delivery ([`Simulation::step_shard`]): every send leaves as
/// an owned [`Message`] in sender-major order — the order [`Route`]
/// appends entries in, which is what makes supervisor-side routing
/// byte-identical. Nothing is delivered locally, so the images swapped in
/// at the end of the round are empty.
struct Extract(Vec<Message>);

impl Delivery for Extract {
    fn deliver(
        &mut self,
        _: &mut MemoryImages,
        from: MachineId,
        send: SendRecord,
        outbox: &Outbox,
    ) {
        self.0.push(Message { from, to: send.to, payload: outbox.payload(&send).to_bitvec() });
    }
}

/// Records one injected fault into the attached sink (if any).
fn observe_fault(
    metrics: &Option<Arc<dyn MetricsSink>>,
    kind: FaultKind,
    machine: MachineId,
    round: usize,
) {
    emit(metrics, || Event::Fault {
        kind: kind.name(),
        machine: machine as u64,
        round: round as u64,
    });
}

/// A configured MPC computation ready to run.
///
/// # Examples
///
/// A two-machine ping-pong that outputs after three rounds:
///
/// ```
/// use mph_mpc::{Simulation, Outbox, RoundCtx, Inbox, ModelViolation};
/// use mph_bits::BitVec;
/// use mph_oracle::{LazyOracle, RandomTape};
/// use std::sync::Arc;
///
/// let logic = Arc::new(|ctx: &RoundCtx<'_>, incoming: &Inbox<'_>, out: &mut Outbox| {
///     let Some(msg) = incoming.first() else { return Ok(()) };
///     let hops = msg.payload.read_u64(0, 8);
///     if hops == 3 {
///         out.emit(msg.payload.to_bitvec());
///         return Ok(());
///     }
///     let other = 1 - ctx.machine();
///     out.push(other, &BitVec::from_u64(hops + 1, 8));
///     Ok(())
/// });
///
/// let mut sim = Simulation::new(2, 64, Arc::new(LazyOracle::square(0, 16)), RandomTape::new(0));
/// sim.set_uniform_logic(logic);
/// sim.seed_memory(0, BitVec::from_u64(0, 8));
/// let result = sim.run_until_output(10).unwrap();
/// assert_eq!(result.rounds(), 4);
/// assert_eq!(result.sole_output().unwrap().read_u64(0, 8), 3);
/// ```
pub struct Simulation {
    m: usize,
    s_bits: usize,
    q: Option<u64>,
    oracle: Arc<dyn Oracle>,
    tape: RandomTape,
    machines: Vec<Arc<dyn MachineLogic>>,
    /// The round's auxiliary arena: payloads with no live sender outbox —
    /// input seeds, straggler deliveries coming due, restored snapshots,
    /// shard batches — back to back. Cleared at the end of every round.
    in_arena: BitVec,
    /// Per-machine memory images as coordinates into `read_outboxes` (the
    /// routed path) or `in_arena` (`aux` entries).
    images: MemoryImages,
    /// Next round's images, filled by local delivery and swapped with
    /// `images` at the end of every round; empty between rounds.
    next: MemoryImages,
    /// Reusable per-machine compute results (queries made, or the round's
    /// violation), written in place by the parallel pass so no result
    /// vector is collected per round.
    results_plane: Vec<Result<u64, ModelViolation>>,
    /// The outbox plane machines write this round — one arena-backed outbox
    /// per machine, borrowed mutably by the parallel compute region.
    /// Ping-pongs with `read_outboxes` at the end of every round.
    outboxes: Vec<Outbox>,
    /// The outbox plane written *last* round, kept alive read-only because
    /// this round's inbox entries view straight into its arenas — delivery
    /// hands each receiver `(sender, offset, len)` coordinates, never a
    /// copy.
    read_outboxes: Vec<Outbox>,
    round: usize,
    stats: SimStats,
    outputs: Vec<(MachineId, BitVec)>,
    metrics: Option<Arc<dyn MetricsSink>>,
    faults: Option<FaultState>,
}

/// The owned product of one sharded round (see
/// [`Simulation::step_shard`]): everything the shard's machines sent,
/// output, and measured this round, materialized for the wire.
///
/// Unlike the in-process round, nothing here views into a live arena —
/// the supervisor serializes it across a process boundary, so payloads
/// are owned [`Message`]s in sender-major order (the exact order the
/// in-process router would have delivered them in).
#[derive(Clone, Debug, PartialEq)]
pub struct ShardRoundOutput {
    /// Every message sent by a shard machine this round (including
    /// self-messages and intra-shard traffic), in sender-major order.
    pub messages: Vec<Message>,
    /// Output contributions emitted this round, in machine order.
    pub outputs: Vec<(MachineId, BitVec)>,
    /// The shard-local statistics of this round (sums and maxima over the
    /// shard's machines only; the supervisor merges shards into the
    /// global round record).
    pub stats: RoundStats,
}

/// A no-op machine used as the default program.
struct IdleMachine;

impl MachineLogic for IdleMachine {
    fn round(
        &self,
        _ctx: &RoundCtx<'_>,
        _incoming: &Inbox<'_>,
        _out: &mut Outbox,
    ) -> Result<(), ModelViolation> {
        Ok(())
    }
}

impl Simulation {
    /// A simulation with `m` machines of `s_bits` local memory each, a
    /// shared oracle, and a shared random tape. All machines start idle;
    /// install programs with [`Simulation::set_uniform_logic`] or
    /// [`Simulation::set_logic`].
    pub fn new(m: usize, s_bits: usize, oracle: Arc<dyn Oracle>, tape: RandomTape) -> Self {
        assert!(m > 0, "need at least one machine");
        let idle: Arc<dyn MachineLogic> = Arc::new(IdleMachine);
        Simulation {
            m,
            s_bits,
            q: None,
            oracle,
            tape,
            machines: vec![idle; m],
            in_arena: BitVec::new(),
            images: MemoryImages::new(m),
            next: MemoryImages::new(m),
            results_plane: Vec::new(),
            outboxes: Vec::new(),
            read_outboxes: Vec::new(),
            round: 0,
            stats: SimStats::default(),
            outputs: Vec::new(),
            metrics: None,
            faults: None,
        }
    }

    /// Sets the per-machine, per-round oracle query budget `q`.
    pub fn set_query_budget(&mut self, q: u64) -> &mut Self {
        self.q = Some(q);
        self
    }

    /// Clears all run state — round counter, pending memory images,
    /// collected outputs, statistics — while **retaining** machine
    /// programs, the oracle, the tape, the metrics sink, and every buffer
    /// allocation (round arenas, entry lists, the outbox pool). After
    /// `reset`, seeding memory and running is observationally identical
    /// to doing so on a freshly constructed simulation; only the
    /// allocator traffic differs.
    pub fn reset(&mut self) -> &mut Self {
        self.in_arena.clear();
        self.images.clear();
        self.next.clear();
        for outbox in &mut self.read_outboxes {
            outbox.clear();
        }
        self.outputs.clear();
        self.stats = SimStats::default();
        self.round = 0;
        if let Some(fs) = &mut self.faults {
            fs.crashed.iter_mut().for_each(|c| *c = false);
            fs.delayed.clear();
        }
        self
    }

    /// [`Simulation::reset`] plus replacing the oracle, random tape, and
    /// query budget — the per-trial turnaround of a reused simulation: one
    /// allocation-retaining reinit instead of a rebuild, so repeated
    /// trials stop paying construction cost.
    pub fn reinit(
        &mut self,
        oracle: Arc<dyn Oracle>,
        tape: RandomTape,
        q: Option<u64>,
    ) -> &mut Self {
        self.oracle = oracle;
        self.tape = tape;
        self.q = q;
        self.reset()
    }

    /// Attaches a telemetry sink; every subsequent round emits
    /// `RoundStart`/`RoundEnd`, per-message `MessageRouted`, per-delivery
    /// `MemoryHighWater`, and `ModelViolation` events into it. With no
    /// sink attached (the default), instrumentation costs one untaken
    /// branch per event site.
    pub fn set_metrics(&mut self, sink: Arc<dyn MetricsSink>) -> &mut Self {
        self.metrics = Some(sink);
        self
    }

    /// Detaches the telemetry sink. Reused simulations ([`Self::reinit`])
    /// keep their sink across trials; a trial that should run silent must
    /// clear it explicitly.
    pub fn clear_metrics(&mut self) -> &mut Self {
        self.metrics = None;
        self
    }

    /// Records `violation` into the attached sink (if any) and returns it,
    /// so error paths can `return Err(self.observe(v))`.
    fn observe(&self, violation: ModelViolation) -> ModelViolation {
        emit(&self.metrics, || Event::ModelViolation { kind: violation.kind() });
        violation
    }

    /// Installs a fault plan; subsequent rounds apply its faults between
    /// compute and delivery (see [`crate::faults`] for the model and its
    /// determinism contract). Replaces any previous plan and clears its
    /// accumulated fault state. An inert plan ([`FaultPlan::is_inert`])
    /// changes nothing: the run is bit-for-bit identical to one with no
    /// plan attached.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) -> &mut Self {
        self.faults = Some(FaultState { plan, crashed: vec![false; self.m], delayed: Vec::new() });
        self
    }

    /// Removes the fault plan and all accumulated fault state.
    pub fn clear_fault_plan(&mut self) -> &mut Self {
        self.faults = None;
        self
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref().map(|fs| &fs.plan)
    }

    /// Installs one shared program on every machine (symmetric algorithms
    /// branch on `ctx.machine()`).
    pub fn set_uniform_logic(&mut self, logic: Arc<dyn MachineLogic>) -> &mut Self {
        for slot in &mut self.machines {
            *slot = Arc::clone(&logic);
        }
        self
    }

    /// Installs a program on one machine.
    pub fn set_logic(&mut self, machine: MachineId, logic: Arc<dyn MachineLogic>) -> &mut Self {
        self.machines[machine] = logic;
        self
    }

    /// Places an initial memory fragment on `machine` before round 0 — the
    /// "input … arbitrarily split and distributed among all the machines".
    /// Checked against `s` when round 0 delivers it.
    pub fn seed_memory(&mut self, machine: MachineId, payload: BitVec) -> &mut Self {
        assert!(machine < self.m, "seed target {machine} out of range (m = {})", self.m);
        self.deliver_aux(machine, machine, &payload);
        self
    }

    /// Appends `payload` to the auxiliary arena as a pending message from
    /// `from` to `to` — the delivery path of every payload with no live
    /// sender outbox.
    fn deliver_aux(&mut self, from: MachineId, to: MachineId, payload: &BitVec) {
        let offset = self.in_arena.len();
        self.in_arena.extend_bits(payload);
        self.images.push(to, InboxEntry { from, offset, len: payload.len(), aux: true });
    }

    /// The number of machines `m`.
    pub fn m(&self) -> usize {
        self.m
    }

    /// The per-machine memory bound `s` in bits.
    pub fn s_bits(&self) -> usize {
        self.s_bits
    }

    /// Number of rounds executed so far.
    pub fn round(&self) -> usize {
        self.round
    }

    /// Statistics gathered so far.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// The memory image (pending incoming messages) of `machine` at the
    /// start of the next round — the `M_i^k` the compression argument
    /// snapshots as the output of its `𝒜₁` — as a zero-copy view into the
    /// round arena.
    pub fn inbox(&self, machine: MachineId) -> Inbox<'_> {
        Inbox::routed(&self.in_arena, &self.read_outboxes, self.images.entries(machine))
    }

    /// Output contributions collected so far.
    pub fn outputs(&self) -> &[(MachineId, BitVec)] {
        &self.outputs
    }

    /// Executes one round; returns the outputs emitted in it — a view into
    /// the accumulated [`Simulation::outputs`], so round outputs are moved
    /// there once, never cloned.
    ///
    /// With a non-inert [`FaultPlan`] installed
    /// ([`Simulation::set_fault_plan`]), faults are applied inside the
    /// round: crashes and due straggler deliveries at round start, oracle
    /// outages during compute, and drop/corrupt/straggle per message
    /// between compute and delivery. Every injected fault emits an
    /// [`Event::Fault`] into the attached metrics sink.
    pub fn step(&mut self) -> Result<&[(MachineId, BitVec)], ModelViolation> {
        let outputs_before = self.outputs.len();
        // Detach the fault state so the round can borrow it beside `self`.
        // An inert plan is treated as absent: the round runs without the
        // fault layer.
        let mut faults = self.faults.take();
        let result = match faults.as_mut().filter(|fs| !fs.plan.is_inert()) {
            Some(fs) => self.run_round(0, self.m, &mut Route, fs),
            None => self.run_round(0, self.m, &mut Route, &mut NoFaults),
        };
        self.faults = faults;
        result?;
        Ok(&self.outputs[outputs_before..])
    }

    /// The one round body: machines `[lo, hi)` compute, their sends are
    /// validated against the model, and every send the fault layer admits
    /// goes where `delivery` puts it. Outputs accumulate in
    /// [`Simulation::outputs`] and the round's statistics in
    /// [`Simulation::stats`]. Machines outside the range must carry empty
    /// memory images.
    fn run_round<D: Delivery, F: FaultLayer>(
        &mut self,
        lo: usize,
        hi: usize,
        delivery: &mut D,
        faults: &mut F,
    ) -> Result<(), ModelViolation> {
        let round = self.round;
        emit(&self.metrics, || Event::RoundStart { round: round as u64 });

        // 0. Round-start faults: inject straggler messages that come due
        //    this round (appending their payloads to the round arena), then
        //    decide crash-stops (a crashed machine loses its memory and
        //    computes nothing from here on).
        let mut messages = 0;
        let mut bits_sent = 0;
        if let Some(fs) = faults.active() {
            let mut i = 0;
            while i < fs.delayed.len() {
                if fs.delayed[i].0 > round {
                    i += 1;
                    continue;
                }
                let (_, msg) = fs.delayed.swap_remove(i);
                if fs.crashed[msg.to] {
                    // Delivery to a crashed machine vanishes.
                    continue;
                }
                let bits = msg.bits();
                messages += 1;
                bits_sent += bits;
                emit(&self.metrics, || Event::MessageRouted { bits: bits as u64 });
                self.deliver_aux(msg.from, msg.to, &msg.payload);
            }
            for machine in lo..hi {
                if !fs.crashed[machine] && fs.plan.crashes_at(machine, round) {
                    fs.crashed[machine] = true;
                    observe_fault(&self.metrics, FaultKind::Crash, machine, round);
                }
                if fs.crashed[machine] {
                    // The image goes; the orphaned arena bits are
                    // unreachable and die with the arena at round end.
                    self.images.clear_machine(machine);
                }
            }
        }

        // 1. Delivery-time memory check (the paper bounds what a machine
        //    may *receive*): a dense scan of the machine-indexed bits
        //    plane — no entry list, let alone payload word, is touched.
        let mut max_memory_bits = 0;
        let mut active = 0;
        for i in lo..hi {
            let bits = self.images.bits(i);
            if bits > self.s_bits {
                return Err(self.observe(ModelViolation::MemoryExceeded {
                    machine: i,
                    round,
                    incoming_bits: bits,
                    s_bits: self.s_bits,
                }));
            }
            if bits > 0 {
                emit(&self.metrics, || Event::MemoryHighWater {
                    machine: i as u64,
                    bits: bits as u64,
                });
            }
            max_memory_bits = max_memory_bits.max(bits);
            active += usize::from(self.images.is_active(i));
        }

        // 2. Run the range's machines in parallel, each against a
        //    zero-copy view of its memory image and a recycled outbox from
        //    the pool — global machine ids, global `m`, the same tape, so a
        //    machine computes the same bits in every delivery mode. Fault
        //    decisions made inside the parallel region are pure functions
        //    of (seed, machine, round), so they are identical under any
        //    thread count or schedule.
        let oracle = &*self.oracle;
        let tape = &self.tape;
        let q = self.q;
        let m = self.m;
        let machines = &self.machines;
        let aux_arena = &self.in_arena;
        let read_boxes = &self.read_outboxes;
        let images = &self.images;
        let fault_view = faults.active().map(|fs| (fs.crashed.as_slice(), fs.plan));
        let mut pool = std::mem::take(&mut self.outboxes);
        pool.resize_with(m, Outbox::new);
        let mut results = std::mem::take(&mut self.results_plane);
        results.clear();
        results.resize_with(hi - lo, || Ok(0));
        // Outboxes and results stay in place: the parallel pass works
        // through `&mut` borrows and writes each machine's result into its
        // slot of the reused plane, so nothing crosses the join — not even
        // machine words. The chunking hint groups idle machines into the
        // active machines' chunks (a sparse round — the honest pipeline's
        // single token walker — runs inline with no pool round-trip).
        let min_len = compute_min_len(hi - lo, active);
        (&mut pool[lo..hi])
            .into_par_iter()
            .zip((&mut results).into_par_iter())
            .enumerate()
            .with_min_len(min_len)
            .map(|(idx, (out, slot))| {
                let id = lo + idx;
                out.clear();
                let inbox = Inbox::routed(aux_arena, read_boxes, images.entries(id));
                if let Some((crashed, plan)) = fault_view {
                    if crashed[id] {
                        return;
                    }
                    if !inbox.is_empty() && plan.oracle_unavailable(id, round) {
                        // Oracle outage voids the round for this machine:
                        // it carries its memory image forward unchanged
                        // via self-messages (forwarded as views — no
                        // owned copies) and retries next round.
                        for msg in inbox.iter() {
                            out.push_view(id, msg.payload);
                        }
                        return;
                    }
                }
                let ctx = RoundCtx::new(id, round, m, oracle, tape, q);
                *slot = machines[id].round(&ctx, &inbox, out).map(|()| ctx.queries_made());
            })
            .collect::<()>();

        // Outage events are emitted here, sequentially, by re-deciding the
        // same pure predicate — sinks see a deterministic event order.
        if let Some(fs) = faults.active() {
            if fs.plan.spec().oracle_outage_rate > 0.0 {
                for id in lo..hi {
                    if !fs.crashed[id]
                        && self.images.is_active(id)
                        && fs.plan.oracle_unavailable(id, round)
                    {
                        observe_fault(&self.metrics, FaultKind::OracleUnavailable, id, round);
                    }
                }
            }
        }

        // Surface the first failure in machine order (the parallel pass is
        // deterministic, so "first" is well-defined and reproducible), and
        // fold the per-machine query counts into round totals while at it.
        // The planes go back to `self` first so their allocations survive
        // even a violation round.
        let mut oracle_queries = 0;
        let mut max_queries_one_machine = 0;
        let mut first_violation = None;
        for slot in &mut results {
            match std::mem::replace(slot, Ok(0)) {
                Ok(queries) => {
                    oracle_queries += queries;
                    max_queries_one_machine = max_queries_one_machine.max(queries);
                }
                Err(v) => {
                    first_violation.get_or_insert(v);
                }
            }
        }
        self.results_plane = results;
        if let Err(v) = first_violation.map_or_else(|| self.check_sends(lo, &pool[lo..hi]), Err) {
            self.outboxes = pool;
            return Err(self.observe(v));
        }

        // 3. Deliver in sender-major order — sender id, then emission
        //    index — every send the fault layer admits.
        for (id, outbox) in (lo..hi).zip(&mut pool[lo..hi]) {
            for idx in 0..outbox.message_count() {
                if let Some(fs) = faults.active() {
                    if !fs.admit(round, id, idx, outbox, &self.metrics) {
                        continue;
                    }
                }
                let send = outbox.sends()[idx];
                messages += 1;
                bits_sent += send.len;
                emit(&self.metrics, || Event::MessageRouted { bits: send.len as u64 });
                delivery.deliver(&mut self.next, id, send, outbox);
            }
            if let Some(out) = outbox.output.take() {
                self.outputs.push((id, out));
            }
        }

        emit(&self.metrics, || Event::RoundEnd {
            round: round as u64,
            messages: messages as u64,
            bits_sent: bits_sent as u64,
            oracle_queries,
            max_queries_one_machine,
            max_memory_bits: max_memory_bits as u64,
            active_machines: active as u64,
        });
        self.stats.rounds.push(RoundStats {
            round,
            messages,
            bits_sent,
            oracle_queries,
            max_queries_one_machine,
            max_memory_bits,
            active_machines: active,
        });
        // Plane ping-pong: the outboxes just written become the read plane
        // the routed entries point into, and the plane consumed this round
        // returns to the pool to be rewritten next round (capacity intact).
        // The auxiliary arena's payloads were consumed by this round's
        // inboxes, so it restarts empty; consumed images retire as next
        // round's (emptied) scratch.
        let consumed = std::mem::replace(&mut self.read_outboxes, pool);
        self.outboxes = consumed;
        self.in_arena.clear();
        std::mem::swap(&mut self.images, &mut self.next);
        self.next.clear();
        self.round += 1;
        Ok(())
    }

    /// Pass 1 of routing: recipient indices, and the sender-side model
    /// bound. A machine computes on `s` bits of local state (Definition
    /// 2.1), so everything it transmits in a round — messages plus any
    /// output contribution — must fit in `s`. A pure metadata scan over
    /// the send records of `senders` (machines `lo..`); payload bits are
    /// untouched.
    fn check_sends(&self, lo: usize, senders: &[Outbox]) -> Result<(), ModelViolation> {
        for (id, outbox) in (lo..).zip(senders) {
            let mut outgoing_bits = 0;
            for send in outbox.sends() {
                if send.to >= self.m {
                    return Err(ModelViolation::BadRecipient {
                        machine: id,
                        round: self.round,
                        to: send.to,
                        m: self.m,
                    });
                }
                outgoing_bits += send.len;
            }
            outgoing_bits += outbox.output.as_ref().map_or(0, BitVec::len);
            if outgoing_bits > self.s_bits {
                return Err(ModelViolation::SendExceeded {
                    machine: id,
                    round: self.round,
                    outgoing_bits,
                    s_bits: self.s_bits,
                });
            }
        }
        Ok(())
    }

    /// Drains the collected outputs and statistics of a run that started
    /// at round `start_round` with a limit of `limit` rounds.
    fn drain(&mut self, completed: bool, start_round: usize, limit: usize) -> RunResult {
        RunResult {
            outcome: if completed {
                RunOutcome::Completed { rounds: self.round - start_round }
            } else {
                RunOutcome::RoundLimit { limit }
            },
            outputs: std::mem::take(&mut self.outputs),
            stats: std::mem::take(&mut self.stats),
        }
    }

    /// Runs until some machine emits an output or `max_rounds` is reached.
    ///
    /// The returned outcome counts rounds executed *by this call* (its
    /// stats were reset when the previous `run_*` drained them), so on a
    /// reused simulation `RunOutcome::Completed { rounds }` always agrees
    /// with [`RunResult::rounds`].
    pub fn run_until_output(&mut self, max_rounds: usize) -> Result<RunResult, ModelViolation> {
        self.run_with_watchdog(max_rounds, &mut || false).map(|(result, _)| result)
    }

    /// Like [`Simulation::run_until_output`], but polls the `expired`
    /// predicate before every round — the wall-clock watchdog hook. When
    /// the predicate fires, the run stops with a
    /// [`RunOutcome::RoundLimit`] result and the returned flag is `true`.
    ///
    /// Completion is checked *before* expiry: a round that produces output
    /// returns `(Completed, false)` without consulting the predicate
    /// again, so a trial finishing exactly at its deadline counts as a
    /// success, never a timeout.
    pub fn run_with_watchdog(
        &mut self,
        max_rounds: usize,
        expired: &mut dyn FnMut() -> bool,
    ) -> Result<(RunResult, bool), ModelViolation> {
        let start_round = self.round;
        for _ in 0..max_rounds {
            if expired() {
                return Ok((self.drain(false, start_round, max_rounds), true));
            }
            if !self.step()?.is_empty() {
                return Ok((self.drain(true, start_round, max_rounds), false));
            }
        }
        Ok((self.drain(false, start_round, max_rounds), false))
    }

    /// Captures the simulation's run state as a durable
    /// [`SimulationSnapshot`] — round index, memory images (pending
    /// inboxes, materialized out of the round arena into owned
    /// [`Message`]s), collected outputs, statistics, the query budget, the
    /// tape seed, and fault-plan coordinates plus accumulated fault state.
    ///
    /// The snapshot byte format is arena-agnostic and unchanged from
    /// earlier releases: payloads are stored owned, so checkpoints never
    /// borrow from a live arena and survive the simulation that took them.
    ///
    /// Configuration the host rebuilds from its own parameters — machine
    /// programs, the oracle, the metrics sink — is deliberately excluded;
    /// see [`Simulation::restore`].
    pub fn snapshot(&self) -> SimulationSnapshot {
        SimulationSnapshot {
            m: self.m,
            s_bits: self.s_bits,
            q: self.q,
            round: self.round,
            inboxes: (0..self.m)
                .map(|to| {
                    self.inbox(to)
                        .iter()
                        .map(|msg| Message { from: msg.from, to, payload: msg.payload.to_bitvec() })
                        .collect()
                })
                .collect(),
            outputs: self.outputs.clone(),
            stats: self.stats.clone(),
            tape_seed: self.tape.seed(),
            faults: self.faults.as_ref().map(|fs| FaultSnapshot {
                seed: fs.plan.seed(),
                spec: *fs.plan.spec(),
                crashed: fs.crashed.clone(),
                delayed: fs.delayed.clone(),
            }),
        }
    }

    /// Reinstalls run state captured by [`Simulation::snapshot`] into this
    /// simulation, which must be configured with the same `m` and `s`
    /// (mismatches are a [`SnapshotError::Malformed`]). Machine programs,
    /// the oracle, and the metrics sink are untouched — they are
    /// configuration, and the caller rebuilds them exactly as it built
    /// them before the checkpoint. Continuing a restored run is
    /// byte-identical to never having stopped.
    pub fn restore(&mut self, snap: &SimulationSnapshot) -> Result<(), SnapshotError> {
        if snap.m != self.m || snap.s_bits != self.s_bits {
            return Err(SnapshotError::Malformed(format!(
                "snapshot geometry (m = {}, s = {}) does not match simulation (m = {}, s = {})",
                snap.m, snap.s_bits, self.m, self.s_bits
            )));
        }
        self.q = snap.q;
        self.round = snap.round;
        // Re-pack the owned snapshot payloads into the auxiliary arena (a
        // restored image has no live sender outboxes to point into).
        self.in_arena.clear();
        for outbox in &mut self.read_outboxes {
            outbox.clear();
        }
        self.images.clear();
        self.next.clear();
        for (to, saved) in (0..self.m).zip(&snap.inboxes) {
            for msg in saved {
                self.deliver_aux(msg.from, to, &msg.payload);
            }
        }
        self.outputs = snap.outputs.clone();
        self.stats = snap.stats.clone();
        self.tape = RandomTape::new(snap.tape_seed);
        self.faults = snap.faults.as_ref().map(|fs| FaultState {
            plan: FaultPlan::new(fs.seed, fs.spec),
            crashed: fs.crashed.clone(),
            delayed: fs.delayed.clone(),
        });
        Ok(())
    }

    /// Drops every pending memory image outside `[lo, hi)` — the
    /// preparation step of a sharded worker, which builds the full
    /// `m`-machine simulation deterministically and then keeps only its
    /// own contiguous shard's seeds. After this call the sharded-round
    /// invariant holds: machines outside the shard carry nothing.
    pub fn retain_shard(&mut self, lo: usize, hi: usize) -> &mut Self {
        assert!(lo < hi && hi <= self.m, "shard [{lo}, {hi}) out of range (m = {})", self.m);
        for machine in (0..lo).chain(hi..self.m) {
            self.images.clear_machine(machine);
        }
        self
    }

    /// Appends `msgs` to their recipients' memory images as owned
    /// auxiliary-arena deliveries — the sharded worker's delivery step for
    /// the batch its supervisor routed to it. Recipients must be in range;
    /// an out-of-range endpoint is a [`ModelViolation::BadRecipient`]
    /// (malformed wire input must not corrupt the arena).
    pub fn inject_messages(&mut self, msgs: &[Message]) -> Result<(), ModelViolation> {
        for msg in msgs {
            if msg.from >= self.m || msg.to >= self.m {
                return Err(self.observe(ModelViolation::BadRecipient {
                    machine: msg.from,
                    round: self.round,
                    to: msg.to,
                    m: self.m,
                }));
            }
        }
        for msg in msgs {
            self.deliver_aux(msg.from, msg.to, &msg.payload);
        }
        Ok(())
    }

    /// Executes one round for the contiguous shard `[lo, hi)` only,
    /// returning everything the shard produced as owned data — the
    /// supervised-worker round (`docs/ROBUSTNESS.md` "Real processes,
    /// real crashes").
    ///
    /// This is the round body of [`Simulation::step`] with extracting
    /// delivery, so model bounds are enforced exactly as in-process:
    /// memory at delivery, `q` inside the round, recipient range and the
    /// sender-side `s` bound over sends plus output bits. The contract
    /// differs in three ways:
    ///
    /// * Only machines in `[lo, hi)` compute; every other machine must be
    ///   carrying an empty memory image (the invariant
    ///   [`Simulation::retain_shard`] establishes and full extraction
    ///   maintains).
    /// * **All** of the shard's sends — self-messages and intra-shard
    ///   traffic included — are extracted as owned [`Message`]s instead
    ///   of being delivered locally, and round outputs are returned owned
    ///   instead of accumulating in [`Simulation::outputs`]. The
    ///   supervisor owns routing and the global transcript; at every
    ///   round barrier the worker's own image is empty, which keeps its
    ///   recovery snapshots minimal.
    /// * Fault plans don't participate: sharded execution's fault model
    ///   is real process crashes, so a non-inert plan here is a
    ///   programming error (asserted).
    pub fn step_shard(&mut self, lo: usize, hi: usize) -> Result<ShardRoundOutput, ModelViolation> {
        assert!(lo < hi && hi <= self.m, "shard [{lo}, {hi}) out of range (m = {})", self.m);
        assert!(
            self.faults.as_ref().is_none_or(|fs| fs.plan.is_inert()),
            "sharded execution does not compose with an injected fault plan; \
             its fault model is real process crashes"
        );
        debug_assert!(
            (0..lo).chain(hi..self.m).all(|i| !self.images.is_active(i)),
            "a machine outside shard [{lo}, {hi}) carries a memory image"
        );
        let outputs_before = self.outputs.len();
        let mut extract = Extract(Vec::new());
        self.run_round(lo, hi, &mut extract, &mut NoFaults)?;
        Ok(ShardRoundOutput {
            messages: extract.0,
            outputs: self.outputs.split_off(outputs_before),
            stats: self.stats.rounds.last().cloned().expect("a completed round records its stats"),
        })
    }

    /// Runs exactly `rounds` rounds (collecting any outputs along the way).
    ///
    /// Like [`Simulation::run_until_output`], the outcome's round count is
    /// per-call, not cumulative across reuses of the simulation.
    pub fn run_rounds(&mut self, rounds: usize) -> Result<RunResult, ModelViolation> {
        let start_round = self.round;
        for _ in 0..rounds {
            self.step()?;
        }
        let completed = !self.outputs.is_empty();
        Ok(self.drain(completed, start_round, rounds))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mph_oracle::LazyOracle;

    fn sim(m: usize, s: usize) -> Simulation {
        Simulation::new(m, s, Arc::new(LazyOracle::square(0, 16)), RandomTape::new(0))
    }

    /// Logic that forwards its memory to the next machine, adding one bit.
    fn relay() -> Arc<dyn MachineLogic> {
        Arc::new(|ctx: &RoundCtx<'_>, incoming: &Inbox<'_>, out: &mut Outbox| {
            let Some(msg) = incoming.first() else {
                return Ok(());
            };
            let mut payload = msg.payload.to_bitvec();
            payload.push(true);
            if payload.len() >= 8 {
                out.emit(payload);
                return Ok(());
            }
            out.push((ctx.machine() + 1) % ctx.m(), &payload);
            Ok(())
        })
    }

    /// Runs `rounds` rounds of `build()` in extracting mode, split into
    /// `shards` contiguous shards — one simulation per shard, each
    /// extracted message routed to its recipient's shard, as the
    /// supervisor does — and returns the first violation.
    fn run_sharded(
        build: &impl Fn() -> Simulation,
        shards: usize,
        rounds: usize,
    ) -> Result<(), ModelViolation> {
        let bounds = crate::shard::partition_shards(build().m(), shards);
        let mut sims: Vec<Simulation> = bounds
            .iter()
            .map(|&(lo, hi)| {
                let mut s = build();
                s.retain_shard(lo, hi);
                s
            })
            .collect();
        let mut batches = vec![Vec::new(); bounds.len()];
        for _ in 0..rounds {
            let mut sent = Vec::new();
            for ((s, &(lo, hi)), batch) in sims.iter_mut().zip(&bounds).zip(&mut batches) {
                s.inject_messages(&std::mem::take(batch))?;
                sent.extend(s.step_shard(lo, hi)?.messages);
            }
            for msg in sent {
                batches[bounds.partition_point(|&(_, hi)| hi <= msg.to)].push(msg);
            }
        }
        Ok(())
    }

    /// Runs `rounds` rounds of `build()` in process, asserts that every
    /// sharding of it (1 to `m` shards) ends with the same `Ok`/`Err`,
    /// and returns that result — the model bounds hold in both delivery
    /// modes of the one round engine.
    fn same_in_both_modes(
        build: impl Fn() -> Simulation,
        rounds: usize,
    ) -> Result<(), ModelViolation> {
        let mut s = build();
        let in_process = (0..rounds).try_for_each(|_| s.step().map(drop));
        for shards in 1..=s.m() {
            assert_eq!(run_sharded(&build, shards, rounds), in_process, "{shards} shard(s)");
        }
        in_process
    }

    #[test]
    fn relay_completes_and_counts_rounds() {
        let mut s = sim(4, 64);
        s.set_uniform_logic(relay());
        s.seed_memory(0, BitVec::zeros(2));
        let result = s.run_until_output(100).unwrap();
        assert!(result.completed());
        // Starts at 2 bits, +1 per round, outputs when >= 8: rounds = 6.
        assert_eq!(result.rounds(), 6);
        assert_eq!(result.sole_output().unwrap().len(), 8);
        assert_eq!(result.stats.total_messages(), 5);
    }

    #[test]
    fn memory_violation_detected_at_delivery() {
        // Machines 0 and 1 each send 10 bits to machine 2 — each sender is
        // within its own s = 16 send budget, but the combined delivery of
        // 20 bits overflows the receiver's memory at the start of round 1.
        let build = || {
            let mut s = sim(3, 16);
            let sender: Arc<dyn MachineLogic> =
                Arc::new(|_ctx: &RoundCtx<'_>, incoming: &Inbox<'_>, out: &mut Outbox| {
                    if incoming.is_empty() {
                        return Ok(());
                    }
                    out.push(2, &BitVec::zeros(10));
                    Ok(())
                });
            s.set_logic(0, Arc::clone(&sender));
            s.set_logic(1, sender);
            s.seed_memory(0, BitVec::zeros(1));
            s.seed_memory(1, BitVec::zeros(1));
            s
        };
        // Round 0: both send; round 1: the delivery check.
        assert_eq!(
            same_in_both_modes(build, 2),
            Err(ModelViolation::MemoryExceeded {
                machine: 2,
                round: 1,
                incoming_bits: 20,
                s_bits: 16
            })
        );
    }

    #[test]
    fn seeded_memory_checked_against_s() {
        let mut s = sim(1, 8);
        s.seed_memory(0, BitVec::zeros(9));
        let err = s.step().unwrap_err();
        assert!(matches!(err, ModelViolation::MemoryExceeded { machine: 0, round: 0, .. }));
    }

    #[test]
    fn send_violation_detected_at_routing() {
        // A machine with s = 16 bits tries to scatter 3 × 8 = 24 bits in
        // one round: more than its memory could ever have held.
        let mut s = sim(4, 16);
        s.set_logic(
            0,
            Arc::new(|_ctx: &RoundCtx<'_>, incoming: &Inbox<'_>, out: &mut Outbox| {
                if incoming.is_empty() {
                    return Ok(());
                }
                for to in 1..4 {
                    out.push(to, &BitVec::zeros(8));
                }
                Ok(())
            }),
        );
        s.seed_memory(0, BitVec::zeros(1));
        let err = s.step().unwrap_err();
        assert_eq!(
            err,
            ModelViolation::SendExceeded { machine: 0, round: 0, outgoing_bits: 24, s_bits: 16 }
        );
    }

    #[test]
    fn send_violation_counts_output_bits() {
        // Messages alone fit (12 ≤ 16), but messages + output = 22 > 16.
        let mut s = sim(2, 16);
        s.set_logic(
            0,
            Arc::new(|_ctx: &RoundCtx<'_>, incoming: &Inbox<'_>, out: &mut Outbox| {
                if incoming.is_empty() {
                    return Ok(());
                }
                out.push(1, &BitVec::zeros(12));
                out.emit(BitVec::zeros(10));
                Ok(())
            }),
        );
        s.seed_memory(0, BitVec::zeros(1));
        let err = s.step().unwrap_err();
        assert_eq!(
            err,
            ModelViolation::SendExceeded { machine: 0, round: 0, outgoing_bits: 22, s_bits: 16 }
        );
    }

    #[test]
    fn send_at_exactly_s_is_legal() {
        let build = || {
            let mut s = sim(2, 16);
            s.set_logic(
                0,
                Arc::new(|_ctx: &RoundCtx<'_>, incoming: &Inbox<'_>, out: &mut Outbox| {
                    if incoming.is_empty() {
                        return Ok(());
                    }
                    out.push(1, &BitVec::zeros(10));
                    out.emit(BitVec::zeros(6));
                    Ok(())
                }),
            );
            s.seed_memory(0, BitVec::zeros(1));
            s
        };
        assert!(same_in_both_modes(build, 1).is_ok());
    }

    #[test]
    fn send_at_s_plus_one_fails() {
        // The exact boundary: 16 bits passed above; 17 must be rejected.
        let build = || {
            let mut s = sim(2, 16);
            s.set_logic(
                0,
                Arc::new(|_ctx: &RoundCtx<'_>, incoming: &Inbox<'_>, out: &mut Outbox| {
                    if incoming.is_empty() {
                        return Ok(());
                    }
                    out.push(1, &BitVec::zeros(11));
                    out.emit(BitVec::zeros(6));
                    Ok(())
                }),
            );
            s.seed_memory(0, BitVec::zeros(1));
            s
        };
        assert_eq!(
            same_in_both_modes(build, 1),
            Err(ModelViolation::SendExceeded {
                machine: 0,
                round: 0,
                outgoing_bits: 17,
                s_bits: 16
            })
        );
    }

    #[test]
    fn query_budget_resets_each_round() {
        // Exactly q queries every round must stay legal indefinitely: the
        // budget is per round (Definition 2.1), not per run.
        let mut s = sim(1, 64);
        s.set_query_budget(2);
        s.set_uniform_logic(Arc::new(
            |ctx: &RoundCtx<'_>, incoming: &Inbox<'_>, out: &mut Outbox| {
                let Some(msg) = incoming.first() else { return Ok(()) };
                ctx.query(&BitVec::from_u64(ctx.round() as u64, 16))?;
                ctx.query(&BitVec::from_u64(ctx.round() as u64 + 100, 16))?;
                if ctx.round() == 4 {
                    out.emit(msg.payload.to_bitvec());
                    return Ok(());
                }
                out.push_view(ctx.machine(), msg.payload);
                Ok(())
            },
        ));
        s.seed_memory(0, BitVec::zeros(4));
        let result = s.run_until_output(10).unwrap();
        assert!(result.completed());
        assert_eq!(result.rounds(), 5);
        for round in &result.stats.rounds {
            assert_eq!(round.max_queries_one_machine, 2);
        }
    }

    #[test]
    fn reused_simulation_reports_per_call_rounds() {
        // Two back-to-back runs on one simulation: the second outcome's
        // round count must agree with its own RunResult::rounds(), not the
        // cumulative self.round.
        let logic: Arc<dyn MachineLogic> =
            Arc::new(|ctx: &RoundCtx<'_>, incoming: &Inbox<'_>, out: &mut Outbox| {
                let Some(msg) = incoming.first() else {
                    return Ok(());
                };
                if ctx.round() % 3 == 2 {
                    out.emit(msg.payload.to_bitvec());
                    return Ok(());
                }
                out.push_view(ctx.machine(), msg.payload);
                Ok(())
            });
        let mut s = sim(1, 64);
        s.set_uniform_logic(logic);
        s.seed_memory(0, BitVec::zeros(4));
        let first = s.run_until_output(10).unwrap();
        assert_eq!(first.outcome, RunOutcome::Completed { rounds: 3 });
        assert_eq!(first.rounds(), 3);

        // Reuse the same simulation for a second computation.
        s.seed_memory(0, BitVec::zeros(4));
        let second = s.run_until_output(10).unwrap();
        assert_eq!(second.rounds(), 3);
        assert_eq!(
            second.outcome,
            RunOutcome::Completed { rounds: second.rounds() },
            "outcome must count rounds within the call, not cumulatively"
        );
        assert_eq!(second.outputs.len(), 1, "first run's outputs were already drained");
    }

    #[test]
    fn reset_run_is_observationally_identical_to_fresh() {
        let fresh = || {
            let mut s = sim(4, 64);
            s.set_uniform_logic(relay());
            s.seed_memory(0, BitVec::zeros(2));
            s.run_until_output(100).unwrap()
        };
        let baseline = fresh();

        // Run once, reset, run again: the second run must match a fresh
        // simulation bit for bit (outputs, rounds, per-round stats).
        let mut s = sim(4, 64);
        s.set_uniform_logic(relay());
        s.seed_memory(0, BitVec::zeros(2));
        let first = s.run_until_output(100).unwrap();
        s.reset();
        s.seed_memory(0, BitVec::zeros(2));
        let second = s.run_until_output(100).unwrap();

        for run in [&first, &second] {
            assert_eq!(run.outputs, baseline.outputs);
            assert_eq!(run.stats, baseline.stats);
            assert_eq!(run.rounds(), baseline.rounds());
        }
        // The round counter restarted from zero at reset.
        assert_eq!(s.round(), second.rounds());
    }

    #[test]
    fn reinit_swaps_oracle_and_budget() {
        let echo_query = Arc::new(|ctx: &RoundCtx<'_>, incoming: &Inbox<'_>, out: &mut Outbox| {
            if incoming.is_empty() {
                return Ok(());
            }
            let a = ctx.query(&BitVec::zeros(16))?;
            out.emit(a);
            Ok(())
        });
        let mut s = sim(1, 64);
        s.set_uniform_logic(echo_query);
        s.seed_memory(0, BitVec::zeros(1));
        let first = s.run_until_output(10).unwrap();

        // Swap in a differently-seeded oracle: the answer must change, and
        // the new q = 0 budget must now reject the query.
        s.reinit(Arc::new(LazyOracle::square(99, 16)), RandomTape::new(1), Some(1));
        s.seed_memory(0, BitVec::zeros(1));
        let second = s.run_until_output(10).unwrap();
        assert_ne!(first.sole_output(), second.sole_output());
        assert_eq!(second.rounds(), first.rounds());

        s.reinit(Arc::new(LazyOracle::square(99, 16)), RandomTape::new(1), Some(0));
        s.seed_memory(0, BitVec::zeros(1));
        let err = s.run_until_output(10).unwrap_err();
        assert_eq!(err, ModelViolation::QueryBudgetExceeded { machine: 0, round: 0, q: 0 });
    }

    #[test]
    fn query_budget_violation_propagates() {
        let build = || {
            let mut s = sim(1, 64);
            s.set_query_budget(2);
            s.set_uniform_logic(Arc::new(|ctx: &RoundCtx<'_>, _: &Inbox<'_>, _: &mut Outbox| {
                for i in 0..3u64 {
                    ctx.query(&BitVec::from_u64(i, 16))?;
                }
                Ok(())
            }));
            s.seed_memory(0, BitVec::zeros(1));
            s
        };
        assert_eq!(
            same_in_both_modes(build, 1),
            Err(ModelViolation::QueryBudgetExceeded { machine: 0, round: 0, q: 2 })
        );
    }

    #[test]
    fn bad_recipient_detected() {
        let build = || {
            let mut s = sim(2, 64);
            s.set_uniform_logic(Arc::new(|_: &RoundCtx<'_>, _: &Inbox<'_>, out: &mut Outbox| {
                out.push(5, &BitVec::zeros(1));
                Ok(())
            }));
            s
        };
        let err = same_in_both_modes(build, 1).unwrap_err();
        assert!(matches!(err, ModelViolation::BadRecipient { to: 5, m: 2, .. }));
    }

    #[test]
    fn round_limit_reported() {
        let mut s = sim(2, 64);
        // Idle machines never output.
        let result = s.run_until_output(5).unwrap();
        assert_eq!(result.outcome, RunOutcome::RoundLimit { limit: 5 });
        assert_eq!(result.rounds(), 5);
    }

    #[test]
    fn stats_track_queries_and_memory() {
        let mut s = sim(3, 64);
        s.set_uniform_logic(Arc::new(
            |ctx: &RoundCtx<'_>, incoming: &Inbox<'_>, _: &mut Outbox| {
                if incoming.is_empty() {
                    return Ok(());
                }
                ctx.query(&BitVec::zeros(16))?;
                ctx.query(&BitVec::ones(16))?;
                Ok(())
            },
        ));
        s.seed_memory(1, BitVec::zeros(40));
        s.step().unwrap();
        let stats = s.stats();
        assert_eq!(stats.rounds[0].oracle_queries, 2);
        assert_eq!(stats.rounds[0].max_queries_one_machine, 2);
        assert_eq!(stats.rounds[0].max_memory_bits, 40);
        assert_eq!(stats.rounds[0].active_machines, 1);
    }

    #[test]
    fn outputs_union_across_machines() {
        let mut s = sim(3, 64);
        s.set_uniform_logic(Arc::new(|ctx: &RoundCtx<'_>, _: &Inbox<'_>, out: &mut Outbox| {
            out.emit(BitVec::from_u64(ctx.machine() as u64, 4));
            Ok(())
        }));
        let result = s.run_until_output(1).unwrap();
        assert_eq!(result.outputs.len(), 3);
        assert!(result.sole_output().is_none());
        let ids: Vec<usize> = result.outputs.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![0, 1, 2]); // deterministic machine order
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut s = sim(4, 128);
            s.set_uniform_logic(Arc::new(
                |ctx: &RoundCtx<'_>, incoming: &Inbox<'_>, out: &mut Outbox| {
                    let Some(msg) = incoming.first() else { return Ok(()) };
                    // Query straight off the arena view — the zero-copy
                    // oracle path inside a real round.
                    let a = ctx.query_view(&msg.payload)?;
                    if ctx.round() == 3 {
                        out.emit(a);
                        return Ok(());
                    }
                    out.push((ctx.machine() + 1) % ctx.m(), &a);
                    Ok(())
                },
            ));
            s.seed_memory(0, BitVec::zeros(16));
            s.run_until_output(10).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn outputs_union_supports_unanimity() {
        let same = |_: &RoundCtx<'_>, _: &Inbox<'_>, out: &mut Outbox| {
            out.emit(BitVec::ones(4));
            Ok(())
        };
        let mut s = sim(3, 64);
        s.set_uniform_logic(Arc::new(same));
        let result = s.run_until_output(1).unwrap();
        assert_eq!(result.output_count(), 3);
        assert!(result.sole_output().is_none(), "sole_output means exactly one");
        assert_eq!(result.unanimous_output(), Some(&BitVec::ones(4)));

        let distinct = |ctx: &RoundCtx<'_>, _: &Inbox<'_>, out: &mut Outbox| {
            out.emit(BitVec::from_u64(ctx.machine() as u64, 4));
            Ok(())
        };
        let mut s = sim(3, 64);
        s.set_uniform_logic(Arc::new(distinct));
        let result = s.run_until_output(1).unwrap();
        assert_eq!(result.output_count(), 3);
        assert!(result.unanimous_output().is_none(), "disagreeing outputs are not unanimous");

        let empty = RunResult {
            outcome: RunOutcome::RoundLimit { limit: 1 },
            outputs: Vec::new(),
            stats: SimStats::default(),
        };
        assert_eq!(empty.output_count(), 0);
        assert!(empty.unanimous_output().is_none());
    }

    #[test]
    fn zero_copy_forwarding_preserves_payloads() {
        // A ring of machines forwarding a recognizable payload purely via
        // push_view: after m hops it returns to the origin intact. This is
        // the relay_routing benchmark's invariant in miniature.
        let m = 4;
        let payload = BitVec::from_u64(0xDEAD_BEEF_CAFE, 48);
        let expect = payload.clone();
        let mut s = sim(m, 256);
        s.set_uniform_logic(Arc::new(
            move |ctx: &RoundCtx<'_>, incoming: &Inbox<'_>, out: &mut Outbox| {
                let Some(msg) = incoming.first() else { return Ok(()) };
                if ctx.round() == ctx.m() {
                    out.emit(msg.payload.to_bitvec());
                    return Ok(());
                }
                out.push_view((ctx.machine() + 1) % ctx.m(), msg.payload);
                Ok(())
            },
        ));
        s.seed_memory(0, payload);
        let result = s.run_until_output(2 * m).unwrap();
        assert_eq!(result.outputs, vec![(0, expect)], "back at the origin, bit-identical");
    }

    // ---- fault injection ----------------------------------------------

    use crate::faults::{FaultPlan, FaultSpec};

    fn relay_run(plan: Option<FaultPlan>, max_rounds: usize) -> RunResult {
        let mut s = sim(4, 64);
        s.set_uniform_logic(relay());
        if let Some(plan) = plan {
            s.set_fault_plan(plan);
        }
        s.seed_memory(0, BitVec::zeros(2));
        s.run_until_output(max_rounds).unwrap()
    }

    #[test]
    fn inert_plan_is_bit_identical_to_no_plan() {
        let bare = relay_run(None, 100);
        let inert = relay_run(Some(FaultPlan::new(12345, FaultSpec::default())), 100);
        assert_eq!(bare.outputs, inert.outputs);
        assert_eq!(bare.stats, inert.stats);
    }

    #[test]
    fn crash_rate_one_halts_the_run() {
        let spec = FaultSpec { crash_rate: 1.0, ..FaultSpec::default() };
        let result = relay_run(Some(FaultPlan::new(0, spec)), 10);
        assert!(!result.completed(), "every machine crashed at round 0");
        assert_eq!(result.outputs.len(), 0);
        assert_eq!(result.stats.total_messages(), 0);
    }

    #[test]
    fn crash_events_are_recorded() {
        let rec = Arc::new(mph_metrics::Recorder::new());
        let mut s = sim(4, 64);
        s.set_uniform_logic(relay());
        s.set_metrics(rec.clone());
        s.set_fault_plan(FaultPlan::new(0, FaultSpec { crash_rate: 1.0, ..FaultSpec::default() }));
        s.seed_memory(0, BitVec::zeros(2));
        s.run_until_output(5).unwrap();
        let snap = rec.snapshot();
        assert_eq!(snap.faults["crash"], 4, "all four machines crash at round 0");
    }

    #[test]
    fn drop_rate_one_starves_the_relay() {
        let spec = FaultSpec { drop_rate: 1.0, ..FaultSpec::default() };
        let result = relay_run(Some(FaultPlan::new(7, spec)), 10);
        assert!(!result.completed(), "the hop after round 0 was dropped");
        // The seeded self-delivery survives (self-messages are exempt) but
        // the single cross-machine hop of round 0 is gone.
        assert_eq!(result.stats.total_messages(), 0);
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let mut s = sim(2, 64);
        s.set_logic(
            0,
            Arc::new(|_: &RoundCtx<'_>, incoming: &Inbox<'_>, out: &mut Outbox| {
                if incoming.is_empty() {
                    return Ok(());
                }
                out.push(1, &BitVec::zeros(32));
                Ok(())
            }),
        );
        s.set_logic(
            1,
            Arc::new(|_: &RoundCtx<'_>, incoming: &Inbox<'_>, out: &mut Outbox| {
                let Some(msg) = incoming.first() else { return Ok(()) };
                out.emit(msg.payload.to_bitvec());
                Ok(())
            }),
        );
        s.set_fault_plan(FaultPlan::new(
            3,
            FaultSpec { corrupt_rate: 1.0, ..FaultSpec::default() },
        ));
        s.seed_memory(0, BitVec::zeros(1));
        let result = s.run_until_output(5).unwrap();
        let out = result.sole_output().expect("delivery still happens, corrupted");
        assert_eq!(out.len(), 32);
        assert_eq!(out.count_ones(), 1, "exactly one bit flipped in the zero payload");
    }

    #[test]
    fn straggler_adds_exactly_its_delay() {
        let ping = |emit_on_receipt: bool| {
            move |ctx: &RoundCtx<'_>, incoming: &Inbox<'_>, out: &mut Outbox| {
                let Some(msg) = incoming.first() else { return Ok(()) };
                if ctx.machine() == 1 && emit_on_receipt {
                    out.emit(msg.payload.to_bitvec());
                    return Ok(());
                }
                out.push_view(1, msg.payload);
                Ok(())
            }
        };
        let run = |plan: Option<FaultPlan>| {
            let mut s = sim(2, 64);
            s.set_uniform_logic(Arc::new(ping(true)));
            if let Some(plan) = plan {
                s.set_fault_plan(plan);
            }
            s.seed_memory(0, BitVec::zeros(8));
            s.run_until_output(20).unwrap()
        };
        let baseline = run(None);
        let spec = FaultSpec { straggler_rate: 1.0, straggler_delay: 3, ..FaultSpec::default() };
        let delayed = run(Some(FaultPlan::new(0, spec)));
        assert!(delayed.completed());
        assert_eq!(
            delayed.rounds(),
            baseline.rounds() + 3,
            "the one cross-machine hop arrives exactly `straggler_delay` rounds late"
        );
        assert_eq!(delayed.sole_output(), baseline.sole_output());
    }

    #[test]
    fn oracle_outage_preserves_memory_image() {
        let mut s = sim(1, 64);
        s.set_uniform_logic(relay());
        s.set_fault_plan(FaultPlan::new(
            0,
            FaultSpec { oracle_outage_rate: 1.0, ..FaultSpec::default() },
        ));
        s.seed_memory(0, BitVec::zeros(8));
        let result = s.run_until_output(4).unwrap();
        assert!(!result.completed(), "a permanent outage voids every round");
        // The memory image rode the self-requeue through all 4 rounds.
        assert_eq!(s.inbox(0).len(), 1);
        assert_eq!(s.inbox(0).get(0).payload.to_bitvec(), BitVec::zeros(8));
    }

    // ---- checkpoint/restart -------------------------------------------

    #[test]
    fn snapshot_restore_continues_byte_identically() {
        // Baseline: an uninterrupted run.
        let mut s = sim(4, 64);
        s.set_uniform_logic(relay());
        s.seed_memory(0, BitVec::zeros(2));
        let baseline = s.run_until_output(100).unwrap();

        // Interrupted: step 3 rounds, snapshot, serialize, decode, restore
        // into a *freshly configured* simulation, and finish.
        let mut first = sim(4, 64);
        first.set_uniform_logic(relay());
        first.seed_memory(0, BitVec::zeros(2));
        for _ in 0..3 {
            first.step().unwrap();
        }
        let bytes = first.snapshot().to_bytes();
        let snap = SimulationSnapshot::from_bytes(&bytes).unwrap();

        let mut resumed = sim(4, 64);
        resumed.set_uniform_logic(relay());
        resumed.restore(&snap).unwrap();
        assert_eq!(resumed.round(), 3);
        let finished = resumed.run_until_output(100).unwrap();

        assert_eq!(finished.outputs, baseline.outputs);
        assert_eq!(finished.stats, baseline.stats);
        assert_eq!(finished.rounds(), baseline.rounds());
    }

    #[test]
    fn snapshot_restore_preserves_fault_state() {
        let spec = FaultSpec {
            crash_rate: 0.02,
            drop_rate: 0.05,
            corrupt_rate: 0.05,
            straggler_rate: 0.10,
            straggler_delay: 2,
            oracle_outage_rate: 0.02,
        };
        let baseline = relay_run(Some(FaultPlan::new(99, spec)), 50);

        let mut first = sim(4, 64);
        first.set_uniform_logic(relay());
        first.set_fault_plan(FaultPlan::new(99, spec));
        first.seed_memory(0, BitVec::zeros(2));
        for _ in 0..5 {
            first.step().unwrap();
        }
        let snap = SimulationSnapshot::from_bytes(&first.snapshot().to_bytes()).unwrap();
        assert!(snap.faults.is_some());

        let mut resumed = sim(4, 64);
        resumed.set_uniform_logic(relay());
        resumed.restore(&snap).unwrap();
        let finished = resumed.run_until_output(45).unwrap();
        assert_eq!(finished.outputs, baseline.outputs);
        assert_eq!(finished.stats, baseline.stats);
    }

    #[test]
    fn restore_rejects_mismatched_geometry() {
        let mut s = sim(4, 64);
        s.seed_memory(0, BitVec::zeros(2));
        let snap = s.snapshot();
        let mut wrong_m = sim(3, 64);
        assert!(wrong_m.restore(&snap).is_err());
        let mut wrong_s = sim(4, 32);
        assert!(wrong_s.restore(&snap).is_err());
    }

    #[test]
    fn watchdog_expiry_stops_before_any_round() {
        let mut s = sim(4, 64);
        s.set_uniform_logic(relay());
        s.seed_memory(0, BitVec::zeros(2));
        let (result, timed_out) = s.run_with_watchdog(100, &mut || true).unwrap();
        assert!(timed_out);
        assert!(!result.completed());
        assert_eq!(result.rounds(), 0, "an already-expired deadline runs no rounds");
    }

    #[test]
    fn watchdog_never_fires_on_a_completing_run() {
        // The predicate goes true only after enough polls for the relay to
        // finish: completion is checked first, so the run still succeeds —
        // finishing "exactly at the deadline" is a success, not a timeout.
        let baseline = relay_run(None, 100);
        let mut s = sim(4, 64);
        s.set_uniform_logic(relay());
        s.seed_memory(0, BitVec::zeros(2));
        let mut polls = 0usize;
        let (result, timed_out) = s
            .run_with_watchdog(100, &mut || {
                polls += 1;
                polls > 6 // the relay outputs in its 6th round
            })
            .unwrap();
        assert!(!timed_out);
        assert!(result.completed());
        assert_eq!(result.outputs, baseline.outputs);
        assert_eq!(result.stats, baseline.stats);
    }

    #[test]
    fn watchdog_with_inert_predicate_matches_run_until_output() {
        let baseline = relay_run(None, 100);
        let mut s = sim(4, 64);
        s.set_uniform_logic(relay());
        s.seed_memory(0, BitVec::zeros(2));
        let (result, timed_out) = s.run_with_watchdog(100, &mut || false).unwrap();
        assert!(!timed_out);
        assert_eq!(result.outputs, baseline.outputs);
        assert_eq!(result.stats, baseline.stats);
    }

    #[test]
    fn faulty_runs_are_deterministic_and_reset_restores_them() {
        let spec = FaultSpec {
            crash_rate: 0.02,
            drop_rate: 0.05,
            corrupt_rate: 0.05,
            straggler_rate: 0.05,
            straggler_delay: 2,
            oracle_outage_rate: 0.02,
        };
        let run_fresh = || relay_run(Some(FaultPlan::new(99, spec)), 50);
        let a = run_fresh();
        let b = run_fresh();
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.stats, b.stats);

        // reset() must clear crashes and in-flight delayed messages so a
        // rerun on the same simulation replays the same fault schedule.
        let mut s = sim(4, 64);
        s.set_uniform_logic(relay());
        s.set_fault_plan(FaultPlan::new(99, spec));
        s.seed_memory(0, BitVec::zeros(2));
        let first = s.run_until_output(50).unwrap();
        assert_eq!(first.outputs, a.outputs);
        s.reset();
        assert!(s.fault_plan().is_some(), "reset keeps the plan, clears its state");
        s.seed_memory(0, BitVec::zeros(2));
        let second = s.run_until_output(50).unwrap();
        assert_eq!(second.outputs, a.outputs);
        assert_eq!(second.stats, a.stats);
    }
}
