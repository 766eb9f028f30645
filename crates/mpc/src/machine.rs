//! The machine interface: per-round logic, context, and outbox.

use crate::error::ModelViolation;
use crate::message::{Inbox, MachineId};
use mph_bits::{BitSlice, BitVec};
use mph_oracle::{Oracle, RandomTape};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Coordinates of one outgoing payload inside an [`Outbox`]'s arena.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SendRecord {
    /// The receiving machine.
    pub to: MachineId,
    /// First bit of the payload inside the outbox arena.
    pub offset: usize,
    /// Payload length in bits.
    pub len: usize,
}

/// What a machine produces in one round: messages for the next round plus an
/// optional contribution to the computation's output.
///
/// Arena-backed: payload bits are appended into one reusable per-outbox
/// buffer and each send is a [`SendRecord`] into it, so a round of sends
/// costs word-level appends, never per-message heap allocations. The
/// executor owns a pool of outboxes and hands each machine a cleared one;
/// the buffers' capacity survives across rounds.
#[derive(Debug, Default)]
pub struct Outbox {
    /// Outgoing payload bits, back to back in emission order.
    payloads: BitVec,
    /// One record per send, in emission order — the order the router
    /// delivers in (within this sender).
    sends: Vec<SendRecord>,
    /// This machine's contribution to the final output, if it has one this
    /// round. The run's result is the union of contributions (Definition
    /// 2.4: "the union of outputs of all the machines at the end of round
    /// R").
    pub output: Option<BitVec>,
}

impl Outbox {
    /// An empty outbox.
    pub fn new() -> Self {
        Outbox::default()
    }

    /// Sends `payload` to machine `to` (bits are copied into the outbox
    /// arena at word granularity).
    pub fn push(&mut self, to: MachineId, payload: &BitVec) {
        self.push_view(to, payload.as_view());
    }

    /// Sends a borrowed view to machine `to` — the zero-copy forwarding
    /// path: an incoming [`MsgRef`](crate::MsgRef) payload can be relayed
    /// without ever materializing an owned copy.
    pub fn push_view(&mut self, to: MachineId, payload: BitSlice<'_>) {
        let offset = self.payloads.len();
        self.payloads.extend_from_view(&payload);
        self.sends.push(SendRecord { to, offset, len: payload.len() });
    }

    /// Sends several borrowed views, concatenated back to back, as ONE
    /// message to `to` — the state-bundling path: a machine persisting
    /// multi-part cross-round state (e.g. its block window) ships it as a
    /// single self-message, costing one send record, one routing decision
    /// and one inbox entry instead of one of each per fragment. The bit
    /// count on the wire is identical to sending the parts separately.
    ///
    /// Pushes nothing when `parts` yields no bits — a zero-length message
    /// would still count as delivery traffic.
    pub fn push_concat<'a>(
        &mut self,
        to: MachineId,
        parts: impl IntoIterator<Item = BitSlice<'a>>,
    ) {
        let offset = self.payloads.len();
        for part in parts {
            self.payloads.extend_from_view(&part);
        }
        let len = self.payloads.len() - offset;
        if len > 0 {
            self.sends.push(SendRecord { to, offset, len });
        }
    }

    /// Sets the output contribution.
    pub fn emit(&mut self, output: BitVec) {
        self.output = Some(output);
    }

    /// Keeps only the sends whose recipient satisfies `keep`, preserving
    /// emission order. (Payload bits of dropped sends stay in the arena
    /// until the next [`Outbox::clear`]; they are unreachable and never
    /// routed or charged.)
    pub fn retain_sends(&mut self, mut keep: impl FnMut(MachineId) -> bool) {
        self.sends.retain(|send| keep(send.to));
    }

    /// Empties the outbox (sends, payload arena, output), keeping both
    /// buffers' capacity.
    pub fn clear(&mut self) {
        self.payloads.clear();
        self.sends.clear();
        self.output = None;
    }

    /// The send records, in emission order.
    pub fn sends(&self) -> &[SendRecord] {
        &self.sends
    }

    /// Number of sends recorded this round.
    pub fn message_count(&self) -> usize {
        self.sends.len()
    }

    /// The payload bits of one send record.
    pub fn payload(&self, send: &SendRecord) -> BitSlice<'_> {
        self.payloads.view(send.offset, send.len)
    }

    /// The whole payload arena — the plane routed inbox entries resolve
    /// against after delivery.
    pub(crate) fn payload_bits(&self) -> &BitVec {
        &self.payloads
    }

    /// Flips one arena bit in place — the fault injector's corruption
    /// primitive. Each send record owns a disjoint arena range, so flipping
    /// a bit of one delivery can never alias another.
    pub(crate) fn flip_payload_bit(&mut self, bit: usize) {
        self.payloads.set(bit, !self.payloads.get(bit));
    }
}

/// Per-machine, per-round execution context: identity, oracle access with
/// the per-round budget `q`, and the shared random tape.
pub struct RoundCtx<'a> {
    machine: MachineId,
    round: usize,
    m: usize,
    oracle: &'a dyn Oracle,
    tape: &'a RandomTape,
    q: Option<u64>,
    queries_made: AtomicU64,
}

impl<'a> RoundCtx<'a> {
    /// A context outside any simulation, for *replaying* one machine's
    /// round in isolation — the compression argument's encoder and decoder
    /// run "the computation done by machine `i` in round `k`" (the paper's
    /// `𝒜₂`) against substituted oracles, and need the same interface the
    /// executor provides.
    pub fn standalone(
        machine: MachineId,
        round: usize,
        m: usize,
        oracle: &'a dyn Oracle,
        tape: &'a RandomTape,
        q: Option<u64>,
    ) -> Self {
        Self::new(machine, round, m, oracle, tape, q)
    }

    pub(crate) fn new(
        machine: MachineId,
        round: usize,
        m: usize,
        oracle: &'a dyn Oracle,
        tape: &'a RandomTape,
        q: Option<u64>,
    ) -> Self {
        RoundCtx { machine, round, m, oracle, tape, q, queries_made: AtomicU64::new(0) }
    }

    /// This machine's index.
    pub fn machine(&self) -> MachineId {
        self.machine
    }

    /// The current round number (round 0 is the first).
    pub fn round(&self) -> usize {
        self.round
    }

    /// The number of machines `m`.
    pub fn m(&self) -> usize {
        self.m
    }

    /// The oracle's input width `n`.
    pub fn oracle_n_in(&self) -> usize {
        self.oracle.n_in()
    }

    /// The oracle's output width.
    pub fn oracle_n_out(&self) -> usize {
        self.oracle.n_out()
    }

    /// Queries the random oracle, charged against this machine's per-round
    /// budget `q`.
    pub fn query(&self, input: &BitVec) -> Result<BitVec, ModelViolation> {
        self.charge(1)?;
        Ok(self.oracle.query(input))
    }

    /// Queries the random oracle on a borrowed view — same budget and
    /// semantics as [`RoundCtx::query`], but the oracle reads the bits in
    /// place (an inbox payload can be queried without materializing it).
    pub fn query_view(&self, input: &BitSlice<'_>) -> Result<BitVec, ModelViolation> {
        self.charge(1)?;
        Ok(self.oracle.query_slice(input))
    }

    /// Queries the random oracle on a borrowed view, writing the answer
    /// into a caller-owned buffer — same budget and semantics as
    /// [`RoundCtx::query_view`], but a caching oracle's warm hit copies the
    /// interned answer words into `out` with no allocation at all. Loops
    /// that query once per token (the honest pipeline's round walk) reuse
    /// one answer buffer across the whole loop.
    pub fn query_into(&self, input: &BitSlice<'_>, out: &mut BitVec) -> Result<(), ModelViolation> {
        self.charge(1)?;
        self.oracle.query_into(input, out);
        Ok(())
    }

    /// Queries the random oracle on a batch of inputs, charging the whole
    /// batch against the budget `q` in one step.
    ///
    /// All-or-nothing: if the batch would overrun the remaining budget, no
    /// query is made and nothing is charged. Answers are identical to
    /// calling [`RoundCtx::query`] per input (the oracle's batch API is
    /// semantically a map); the batch form amortizes the budget check and
    /// virtual dispatch, and lets batching oracles resolve the whole slice
    /// at once.
    pub fn query_many(&self, inputs: &[BitVec]) -> Result<Vec<BitVec>, ModelViolation> {
        self.charge(inputs.len() as u64)?;
        Ok(self.oracle.query_many(inputs))
    }

    /// Batched oracle queries over borrowed views — the vectorized
    /// counterpart of [`RoundCtx::query_view`], with the same all-or-nothing
    /// budget charge as [`RoundCtx::query_many`]. Inputs are read straight
    /// out of their arena; nothing is materialized on the query path.
    pub fn query_many_views(&self, inputs: &[BitSlice<'_>]) -> Result<Vec<BitVec>, ModelViolation> {
        self.charge(inputs.len() as u64)?;
        Ok(self.oracle.query_many_slices(inputs))
    }

    /// Charges `count` queries against the budget, counting them only if
    /// they are actually allowed to reach the oracle — a rejected query is
    /// *not* a query, so `queries_made` always equals the number of oracle
    /// calls.
    fn charge(&self, count: u64) -> Result<(), ModelViolation> {
        if let Some(q) = self.q {
            // Relaxed is fine: the counter is private to this (machine,
            // round) context; we only need atomicity, not ordering.
            let allowed = self
                .queries_made
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |made| {
                    made.checked_add(count).filter(|&total| total <= q)
                })
                .is_ok();
            if !allowed {
                return Err(ModelViolation::QueryBudgetExceeded {
                    machine: self.machine,
                    round: self.round,
                    q,
                });
            }
        } else {
            self.queries_made.fetch_add(count, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Number of oracle queries made so far this round (budget-rejected
    /// attempts are not queries and are not counted).
    pub fn queries_made(&self) -> u64 {
        self.queries_made.load(Ordering::Relaxed)
    }

    /// Reads `len` bits of the shared random tape at `offset`
    /// (Definition 2.1's tape `𝒯`; reads are free and unmetered).
    pub fn tape(&self, offset: u64, len: usize) -> BitVec {
        self.tape.read(offset, len)
    }

    /// Convenience: an [`ModelViolation::AlgorithmError`] for this machine
    /// and round.
    pub fn error(&self, reason: impl Into<String>) -> ModelViolation {
        ModelViolation::AlgorithmError {
            machine: self.machine,
            round: self.round,
            reason: reason.into(),
        }
    }
}

/// One machine's program.
///
/// `round` is invoked once per round with the machine's memory image — the
/// messages delivered to it (for round 0, its share of the input) — as a
/// zero-copy [`Inbox`] of views into the round arena, plus a cleared
/// [`Outbox`] to fill. The contract that makes the simulator a faithful
/// model:
///
/// * **No hidden state.** Implementations must be pure functions of
///   `(ctx, incoming)` plus immutable configuration fixed at construction.
///   Anything remembered between rounds must travel through a self-message,
///   where it is charged against `s`. The trait takes `&self` to make
///   mutation impossible.
/// * **Round-scoped views.** `incoming`'s payloads borrow the executor's
///   arena and end with the call; persisting a payload means sending it
///   (e.g. [`Outbox::push_view`]), not stashing a reference.
/// * **Budgets are per-round.** `ctx.query` enforces `q`; the executor
///   enforces `Σ incoming ≤ s` at delivery.
///
/// Machines are `Send + Sync` because the executor runs all machines of a
/// round in parallel.
pub trait MachineLogic: Send + Sync {
    /// Executes one round, writing messages and any output into `out`.
    fn round(
        &self,
        ctx: &RoundCtx<'_>,
        incoming: &Inbox<'_>,
        out: &mut Outbox,
    ) -> Result<(), ModelViolation>;
}

impl<F> MachineLogic for F
where
    F: Fn(&RoundCtx<'_>, &Inbox<'_>, &mut Outbox) -> Result<(), ModelViolation> + Send + Sync,
{
    fn round(
        &self,
        ctx: &RoundCtx<'_>,
        incoming: &Inbox<'_>,
        out: &mut Outbox,
    ) -> Result<(), ModelViolation> {
        self(ctx, incoming, out)
    }
}

/// A shared machine program applied to every machine (most algorithms are
/// symmetric: the same code parameterized by `ctx.machine()`).
pub type SharedLogic = Arc<dyn MachineLogic>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::InboxBuffer;
    use mph_oracle::LazyOracle;

    #[test]
    fn ctx_budget_enforced() {
        let oracle = LazyOracle::square(1, 16);
        let tape = RandomTape::new(0);
        let ctx = RoundCtx::new(2, 5, 4, &oracle, &tape, Some(2));
        assert!(ctx.query(&BitVec::zeros(16)).is_ok());
        assert!(ctx.query(&BitVec::ones(16)).is_ok());
        let err = ctx.query(&BitVec::zeros(16)).unwrap_err();
        assert_eq!(err, ModelViolation::QueryBudgetExceeded { machine: 2, round: 5, q: 2 });
        // A rejected attempt never reached the oracle, so it is not counted:
        // the counter agrees with the number of actual oracle calls.
        assert_eq!(ctx.queries_made(), 2);
    }

    #[test]
    fn ctx_query_many_charges_batch_atomically() {
        let oracle = LazyOracle::square(1, 16);
        let tape = RandomTape::new(0);
        let ctx = RoundCtx::new(0, 0, 1, &oracle, &tape, Some(5));
        let inputs: Vec<BitVec> = (0..3u64).map(|i| BitVec::from_u64(i, 16)).collect();
        let batch = ctx.query_many(&inputs).unwrap();
        assert_eq!(ctx.queries_made(), 3);
        // Batch answers equal per-query answers.
        for (q, a) in inputs.iter().zip(&batch) {
            assert_eq!(a, &oracle.query(q));
        }
        // A batch that would overrun the remaining budget (2 left) is
        // rejected whole: nothing charged, nothing queried.
        let err = ctx.query_many(&inputs).unwrap_err();
        assert_eq!(err, ModelViolation::QueryBudgetExceeded { machine: 0, round: 0, q: 5 });
        assert_eq!(ctx.queries_made(), 3);
        // A batch that exactly fits is accepted.
        assert!(ctx.query_many(&inputs[..2]).is_ok());
        assert_eq!(ctx.queries_made(), 5);
    }

    #[test]
    fn ctx_view_queries_match_owned_and_share_the_budget() {
        let oracle = LazyOracle::square(1, 16);
        let tape = RandomTape::new(0);
        let ctx = RoundCtx::new(0, 0, 1, &oracle, &tape, Some(4));
        // Unaligned views out of one arena.
        let mut arena = BitVec::from_u64(0b1, 1);
        let inputs: Vec<BitVec> = (5..7u64).map(|i| BitVec::from_u64(i, 16)).collect();
        for input in &inputs {
            arena.extend_bits(input);
        }
        let views = [arena.view(1, 16), arena.view(17, 16)];
        let one = ctx.query_view(&views[0]).unwrap();
        assert_eq!(one, oracle.query(&inputs[0]));
        let batch = ctx.query_many_views(&views).unwrap();
        assert_eq!(batch, vec![oracle.query(&inputs[0]), oracle.query(&inputs[1])]);
        assert_eq!(ctx.queries_made(), 3);
        // All-or-nothing: one slot left, a batch of two is rejected whole.
        let err = ctx.query_many_views(&views).unwrap_err();
        assert_eq!(err, ModelViolation::QueryBudgetExceeded { machine: 0, round: 0, q: 4 });
        assert_eq!(ctx.queries_made(), 3);
    }

    #[test]
    fn ctx_query_into_matches_query_and_charges_budget() {
        let oracle = LazyOracle::square(1, 16);
        let tape = RandomTape::new(0);
        let ctx = RoundCtx::new(0, 0, 1, &oracle, &tape, Some(2));
        let input = BitVec::from_u64(9, 16);
        let mut out = BitVec::new();
        ctx.query_into(&input.as_view(), &mut out).unwrap();
        assert_eq!(out, oracle.query(&input));
        assert_eq!(ctx.queries_made(), 1);
        // The reused buffer is fully overwritten by the next answer.
        let other = BitVec::from_u64(10, 16);
        ctx.query_into(&other.as_view(), &mut out).unwrap();
        assert_eq!(out, oracle.query(&other));
        // Budget exhausted: the attempt is rejected and not counted.
        let err = ctx.query_into(&input.as_view(), &mut out).unwrap_err();
        assert_eq!(err, ModelViolation::QueryBudgetExceeded { machine: 0, round: 0, q: 2 });
        assert_eq!(ctx.queries_made(), 2);
    }

    #[test]
    fn ctx_unbounded_when_no_q() {
        let oracle = LazyOracle::square(1, 16);
        let tape = RandomTape::new(0);
        let ctx = RoundCtx::new(0, 0, 1, &oracle, &tape, None);
        for _ in 0..100 {
            assert!(ctx.query(&BitVec::zeros(16)).is_ok());
        }
        assert_eq!(ctx.queries_made(), 100);
    }

    #[test]
    fn outbox_arena_sends() {
        let mut ob = Outbox::new();
        ob.push(1, &BitVec::zeros(4));
        ob.push(0, &BitVec::from_u64(0xF, 4));
        ob.emit(BitVec::ones(2));
        assert_eq!(ob.message_count(), 2);
        assert_eq!(ob.sends()[0], SendRecord { to: 1, offset: 0, len: 4 });
        assert_eq!(ob.sends()[1], SendRecord { to: 0, offset: 4, len: 4 });
        assert_eq!(ob.payload(&ob.sends()[1]).to_bitvec(), BitVec::from_u64(0xF, 4));
        assert_eq!(ob.output, Some(BitVec::ones(2)));
        // retain_sends preserves emission order of the survivors.
        ob.push(2, &BitVec::ones(3));
        ob.retain_sends(|to| to != 0);
        let tos: Vec<_> = ob.sends().iter().map(|s| s.to).collect();
        assert_eq!(tos, vec![1, 2]);
        assert_eq!(ob.payload(&ob.sends()[1]).to_bitvec(), BitVec::ones(3));
        // clear keeps nothing observable.
        ob.clear();
        assert_eq!(ob.message_count(), 0);
        assert!(ob.output.is_none());
    }

    #[test]
    fn outbox_push_view_forwards_verbatim() {
        // Forwarding an unaligned inbox view is bit-identical to pushing
        // the owned payload.
        let payload = BitVec::from_u64(0xDEAD, 16);
        let mut buf = InboxBuffer::new();
        buf.push(3, &BitVec::from_u64(0b101, 3)); // misalign the arena
        buf.push(7, &payload);
        let inbox = buf.as_inbox();
        let mut ob = Outbox::new();
        ob.push_view(4, inbox.get(1).payload);
        assert_eq!(ob.payload(&ob.sends()[0]).to_bitvec(), payload);
        assert_eq!(ob.sends()[0].to, 4);
    }

    #[test]
    fn closures_are_machines() {
        let logic = |ctx: &RoundCtx<'_>, _incoming: &Inbox<'_>, out: &mut Outbox| {
            out.emit(BitVec::from_u64(ctx.machine() as u64, 8));
            Ok(())
        };
        let oracle = LazyOracle::square(1, 16);
        let tape = RandomTape::new(0);
        let ctx = RoundCtx::new(3, 0, 4, &oracle, &tape, None);
        let buf = InboxBuffer::new();
        let mut out = Outbox::new();
        MachineLogic::round(&logic, &ctx, &buf.as_inbox(), &mut out).unwrap();
        assert_eq!(out.output, Some(BitVec::from_u64(3, 8)));
    }
}
