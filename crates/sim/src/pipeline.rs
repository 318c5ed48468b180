//! The speculative day pipeline (DESIGN.md §15): clear day `k+1`'s market
//! while day `k` detects.
//!
//! A detection day splits into a belief-independent front half (community
//! generation, market clearing, attack application, realization) and a
//! stateful back half (prediction, slot loop, POMDP). The front half is a
//! pure function of the day's seeded RNG stream, except the realization,
//! which also reads the compromise set at day start. So the pipeline
//! **opens** day `d` for precomputation as soon as day `d−1` starts, under
//! the set projected for it: the set at day `d−1`'s start plus that day's
//! scripted timeline events. When day `d` starts, its inputs **commit** if
//! the projection held. The only thing that breaks it is the detector
//! dispatching a mid-day fix; the day is then **discarded**, which keeps
//! its clearing and recomputes only the realization under the live set.
//!
//! One helper thread and the main thread claim open days strictly in day
//! order through a [`Board`]. The helper takes each day as it opens. When
//! the day the main thread needs is still being computed by the helper,
//! the main thread claims the next open day itself instead of waiting
//! (it clears ahead, with the run's own setup and cache); when nobody has
//! claimed the needed day, the main thread computes it. At most one day is
//! open ahead of the main thread's day, and its assumption is fixed when it
//! opens, so the tally and every counter are independent of which thread
//! ran what: precomputed days record into no recorder, whichever thread
//! ran them.
//!
//! Bit-identity is preserved by construction rather than by tolerance:
//! every day stream derives from `(seed, day)` alone, so a precomputation
//! is the same pure function the inline path evaluates, and committed or
//! salvaged inputs are bit-identical to what the sequential day computes
//! itself. A helper that panics or errors leaves its day failed and stops;
//! the main thread recomputes that day inline (counted as discarded) and
//! claims every later day itself. The tally is telemetry only — returned
//! beside the result and never journaled, so a speculative run's journal is
//! byte-identical to a sequential run's.

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use nms_obs::{names, Recorder};

use crate::detection::{DayInputs, LongTermRunResult, SupervisedRun};
use crate::SimError;

/// How one speculative run's pipeline behaved. Telemetry only: never
/// journaled, never folded into [`LongTermRunResult`], so sequential and
/// speculative runs stay bit-identical in every persisted artifact. Every
/// count is a pure function of the run, independent of thread timing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpeculationReport {
    /// Days opened for precomputation: every day after the run's first.
    pub launched: u64,
    /// Precomputed days whose compromise-set assumption held at day start.
    pub committed: u64,
    /// Precomputed days whose assumption diverged (a mid-day fix), so the
    /// clearing was kept and the realization recomputed under the live
    /// set; or whose precomputation failed, so the day was recomputed
    /// inline.
    pub discarded: u64,
}

impl SpeculationReport {
    fn settle(&mut self, committed: bool, rec: &dyn Recorder) {
        if committed {
            self.committed += 1;
            rec.add(names::pipeline::SPECULATION_COMMITTED, 1);
        } else {
            self.discarded += 1;
            rec.add(names::pipeline::SPECULATION_DISCARDED, 1);
        }
    }
}

/// What the main thread should do next for the day it needs.
#[derive(Debug, PartialEq)]
enum Next<T> {
    /// The day was precomputed; `None` when its precomputation failed.
    Done(Option<T>),
    /// Nobody claimed the day: compute it here, under this assumption.
    Claim(Vec<usize>),
    /// The helper is computing the needed day: meanwhile compute this later
    /// open day here, under this assumption, and post it.
    Ahead(usize, Vec<usize>),
}

struct Slots<T> {
    /// Open, unclaimed days in day order, with their assumed sets.
    open: VecDeque<(usize, Vec<usize>)>,
    /// Precomputed days not yet taken; `None` marks a failed one.
    done: BTreeMap<usize, Option<T>>,
    /// Set once the run stops needing the helper.
    closed: bool,
}

/// The claim board the main thread and the helper share: days open in
/// order, are claimed in order, and are posted back by whoever claimed
/// them.
pub(crate) struct Board<T> {
    slots: Mutex<Slots<T>>,
    changed: Condvar,
}

impl<T> Default for Board<T> {
    fn default() -> Self {
        Self {
            slots: Mutex::new(Slots {
                open: VecDeque::new(),
                done: BTreeMap::new(),
                closed: false,
            }),
            changed: Condvar::new(),
        }
    }
}

impl<T> Board<T> {
    fn lock(&self) -> MutexGuard<'_, Slots<T>> {
        // No code outside this impl runs under the lock, and every update
        // here is one whole step, so a poisoned guard still holds a valid
        // board.
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, slots: MutexGuard<'a, Slots<T>>) -> MutexGuard<'a, Slots<T>> {
        self.changed
            .wait(slots)
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn open(&self, day: usize, assumed: Vec<usize>) {
        self.lock().open.push_back((day, assumed));
        self.changed.notify_all();
    }

    fn post(&self, day: usize, inputs: Option<T>) {
        self.lock().done.insert(day, inputs);
        self.changed.notify_all();
    }

    fn close(&self) {
        self.lock().closed = true;
        self.changed.notify_all();
    }

    /// The helper's claim: the next open day, blocking until one opens;
    /// `None` once the board is closed.
    fn claim(&self) -> Option<(usize, Vec<usize>)> {
        let mut slots = self.lock();
        loop {
            if slots.closed {
                return None;
            }
            if let Some(claimed) = slots.open.pop_front() {
                return Some(claimed);
            }
            slots = self.wait(slots);
        }
    }

    /// The main thread's step toward day `day`. It blocks only while the
    /// helper computes `day` and no later day is open; the helper always
    /// posts a day it claimed, failed or not, so the wait ends.
    fn next(&self, day: usize) -> Next<T> {
        let mut slots = self.lock();
        loop {
            if let Some(inputs) = slots.done.remove(&day) {
                return Next::Done(inputs);
            }
            if let Some((open, assumed)) = slots.open.pop_front() {
                debug_assert!(open >= day, "days are claimed in order");
                return if open == day {
                    Next::Claim(assumed)
                } else {
                    Next::Ahead(open, assumed)
                };
            }
            slots = self.wait(slots);
        }
    }

    /// Blocks until day `day` has been posted.
    #[cfg(test)]
    fn wait_posted(&self, day: usize) {
        let mut slots = self.lock();
        while !slots.done.contains_key(&day) {
            slots = self.wait(slots);
        }
    }
}

/// Closes the board when the main thread leaves the pipeline by any path
/// (done, error or panic), so the helper's claim loop ends and the thread
/// scope can join it.
struct CloseOnDrop<'a, T>(&'a Board<T>);

impl<T> Drop for CloseOnDrop<'_, T> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// The helper thread's loop: claim, compute, post. A panic or error in
/// `compute` posts the day as failed and ends the loop; the main thread
/// claims every later day itself.
fn serve<T>(board: &Board<T>, mut compute: impl FnMut(usize, &[usize]) -> Result<T, SimError>) {
    while let Some((day, assumed)) = board.claim() {
        let inputs = catch_unwind(AssertUnwindSafe(|| compute(day, &assumed)))
            .ok()
            .and_then(Result::ok);
        let failed = inputs.is_none();
        board.post(day, inputs);
        if failed {
            return;
        }
    }
}

impl SupervisedRun {
    /// Runs every remaining day through the speculative pipeline, then
    /// finishes. The result is bit-identical to [`SupervisedRun::run`]
    /// (asserted by `tests/day_pipeline.rs`); the report says how often
    /// speculation paid off. Starts at most one thread, and joins it
    /// before returning.
    ///
    /// # Errors
    ///
    /// Same as [`SupervisedRun::run`].
    pub fn run_speculative(self) -> Result<(LongTermRunResult, SpeculationReport), SimError> {
        let helper = self.precompute_helper()?;
        self.run_pipelined(&Board::default(), helper)
    }

    /// [`SupervisedRun::run_speculative`] with the helper thread's
    /// computation and the board passed in.
    fn run_pipelined<H>(
        mut self,
        board: &Board<DayInputs>,
        helper: H,
    ) -> Result<(LongTermRunResult, SpeculationReport), SimError>
    where
        H: FnMut(usize, &[usize]) -> Result<DayInputs, SimError> + Send,
    {
        let report = std::thread::scope(|scope| {
            let closer = CloseOnDrop(board);
            // Without a helper thread the main thread claims every day.
            let handle = std::thread::Builder::new()
                .name("nms-lookahead".into())
                .spawn_scoped(scope, move || serve(board, helper))
                .ok();
            let report = self.drive(board);
            drop(closer);
            if let Some(handle) = handle {
                // `serve` contains every panic of a day's computation, so
                // one escaping it is a bug in the board: re-raise it.
                if let Err(payload) = handle.join() {
                    std::panic::resume_unwind(payload);
                }
            }
            report
        })?;
        Ok((self.finish()?, report))
    }

    /// The main thread's day loop.
    fn drive(&mut self, board: &Board<DayInputs>) -> Result<SpeculationReport, SimError> {
        let mut report = SpeculationReport::default();
        let first = self.completed_days();
        while !self.is_finished() {
            let day = self.completed_days();
            // Open tomorrow before today's inputs are in hand, under the
            // set at today's start plus today's scripted events.
            if day + 1 < self.detection_days() {
                board.open(day + 1, self.project_compromised_after(day));
                report.launched += 1;
                self.rec().add(names::pipeline::SPECULATION_LAUNCHED, 1);
            }
            if day == first {
                // Nothing opened the run's first day.
                self.step_day()?;
                continue;
            }
            let precomputed = loop {
                match board.next(day) {
                    Next::Done(inputs) => break inputs,
                    Next::Claim(assumed) => break self.precompute(day, &assumed).ok(),
                    Next::Ahead(ahead, assumed) => {
                        let inputs = self.precompute(ahead, &assumed).ok();
                        board.post(ahead, inputs);
                    }
                }
            };
            match precomputed {
                Some(inputs) => {
                    report.settle(inputs.assumed == self.current_compromised(), self.rec());
                    self.step_day_with_precomputed(inputs)?;
                }
                None => {
                    // The precomputation failed: recompute the whole day
                    // inline, which reproduces its error if it has one.
                    report.settle(false, self.rec());
                    self.step_day()?;
                }
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use std::path::Path;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    use nms_attack::{AttackTimeline, PriceAttack};
    use nms_types::ValidateError;
    use nms_vfs::{FaultVfs, IoFaultPlan};

    use super::*;
    use crate::{LongTermRunConfig, PaperScenario, SupervisedOptions};

    #[test]
    fn helper_results_come_back_in_order() {
        let board = Board::default();
        board.open(1, vec![0]);
        assert_eq!(board.claim(), Some((1, vec![0])));
        board.post(1, Some(10));
        board.open(2, vec![0, 1]);
        assert_eq!(board.claim(), Some((2, vec![0, 1])));
        assert_eq!(board.next(1), Next::Done(Some(10)));
        board.post(2, Some(20));
        assert_eq!(board.next(2), Next::Done(Some(20)));
    }

    #[test]
    fn main_thread_claims_a_day_nobody_claimed() {
        let board = Board::<u64>::default();
        board.open(1, vec![3]);
        board.open(2, vec![3, 4]);
        assert_eq!(board.next(1), Next::Claim(vec![3]));
        // The later open day is still the helper's to take.
        assert_eq!(board.claim(), Some((2, vec![3, 4])));
    }

    #[test]
    fn main_thread_clears_ahead_while_the_helper_computes() {
        let board = Board::default();
        board.open(1, vec![]);
        assert_eq!(board.claim(), Some((1, vec![])));
        board.open(2, vec![5]);
        assert_eq!(board.next(1), Next::Ahead(2, vec![5]));
        board.post(2, Some(20));
        board.post(1, None);
        assert_eq!(
            board.next(1),
            Next::Done(None),
            "a failed day reaches the main thread"
        );
        assert_eq!(board.next(2), Next::Done(Some(20)));
    }

    #[test]
    fn closing_ends_a_blocked_claim() {
        let board = Board::<u64>::default();
        std::thread::scope(|scope| {
            let helper = scope.spawn(|| board.claim());
            board.close();
            assert_eq!(helper.join().expect("claim returns"), None);
        });
        board.open(1, vec![]);
        assert_eq!(board.claim(), None, "a closed board hands out nothing");
    }

    const DAYS: usize = 5;

    fn scenario() -> PaperScenario {
        let mut scenario = PaperScenario::small(8, 29);
        scenario.training_days = 3;
        scenario
    }

    /// No detector: nothing can diverge, so every precomputed day that did
    /// not fail commits.
    fn config() -> LongTermRunConfig {
        LongTermRunConfig {
            detection_days: DAYS,
            detector: None,
            timeline: AttackTimeline::new(
                vec![(4, 2), (30, 2)],
                PriceAttack::zero_window(16.0, 18.0).expect("window"),
            )
            .expect("timeline"),
            buckets: 4,
            bucket_fraction_step: 0.15,
            labor_per_fix: 10.0,
            labor_per_meter: 1.0,
            faults: None,
            sanitize: Default::default(),
            retry: Default::default(),
            budget: Default::default(),
            quarantine: Default::default(),
            parallelism: Default::default(),
            clearing_iterations: 2,
        }
    }

    fn build() -> SupervisedRun {
        SupervisedRun::with_options(
            &scenario(),
            &config(),
            3,
            Path::new("pipeline.jsonl"),
            SupervisedOptions {
                vfs: Arc::new(FaultVfs::new(IoFaultPlan::none())),
                ..SupervisedOptions::default()
            },
        )
        .expect("run builds")
    }

    fn normalized(mut result: LongTermRunResult) -> String {
        result.health.storage = Default::default();
        format!("{result:?}")
    }

    /// Runs the pipeline with the real helper computation wrapped by
    /// `fault`, which sees each day the helper is handed first.
    fn run_with_fault(
        fault: impl Fn(&Board<DayInputs>, usize) -> Result<(), SimError> + Sync,
    ) -> (LongTermRunResult, SpeculationReport) {
        let run = build();
        let mut real = run.precompute_helper().expect("helper builds");
        let board = Board::default();
        let helper = |day: usize, assumed: &[usize]| {
            fault(&board, day)?;
            real(day, assumed)
        };
        run.run_pipelined(&board, helper).expect("run completes")
    }

    /// Checks a faulted run against the sequential one: bit-identical, and
    /// each day the fault hit counted as discarded.
    fn assert_contained(faulted: (LongTermRunResult, SpeculationReport), failed: u64) {
        let sequential = build().run().expect("sequential run");
        let (result, report) = faulted;
        assert_eq!(normalized(sequential), normalized(result));
        assert_eq!(
            report,
            SpeculationReport {
                launched: DAYS as u64 - 1,
                committed: DAYS as u64 - 1 - failed,
                discarded: failed,
            }
        );
    }

    #[test]
    fn inputs_for_another_day_are_refused() {
        let mut run = build();
        let live = run.current_compromised();
        let tomorrow = run.precompute(1, &live).expect("day 1 precomputes");
        let err = run
            .step_day_with_precomputed(tomorrow)
            .expect_err("day 0 must refuse day 1's inputs");
        assert!(matches!(err, SimError::Config(_)), "{err:?}");
        assert_eq!(run.completed_days(), 0);
    }

    #[test]
    fn panicking_helper_day_is_recomputed_inline() {
        let fired = AtomicBool::new(false);
        let ran = run_with_fault(|_, day| {
            if !fired.swap(true, Ordering::SeqCst) {
                panic!("injected helper panic on day {day}");
            }
            Ok(())
        });
        // The helper is spawned before the first day, which it never
        // computes, so it is handed a later day before the run ends.
        assert!(fired.load(Ordering::SeqCst), "the helper was handed a day");
        assert_contained(ran, 1);
    }

    #[test]
    fn erroring_helper_day_is_recomputed_inline() {
        let fired = AtomicBool::new(false);
        let ran = run_with_fault(|_, day| {
            if fired.swap(true, Ordering::SeqCst) {
                return Ok(());
            }
            Err(SimError::Config(ValidateError::new(format!(
                "injected helper error on day {day}"
            ))))
        });
        assert!(fired.load(Ordering::SeqCst), "the helper was handed a day");
        assert_contained(ran, 1);
    }

    #[test]
    fn slow_helper_day_lets_the_main_thread_clear_ahead() {
        let slowed = Mutex::new(None);
        let handed = Mutex::new(Vec::new());
        let ran = run_with_fault(|board, day| {
            handed.lock().expect("handed days").push(day);
            let mut slowed = slowed.lock().expect("slowed day");
            if slowed.is_none() && day + 1 < DAYS {
                *slowed = Some(day);
                drop(slowed);
                // Hold this day until the main thread, finding it in
                // progress, has claimed and posted the next one.
                board.wait_posted(day + 1);
            }
            Ok(())
        });
        let slowed = slowed
            .into_inner()
            .expect("slowed day")
            .expect("a day was slowed");
        let handed = handed.into_inner().expect("handed days");
        assert!(
            !handed.contains(&(slowed + 1)),
            "the main thread claimed day {} itself: helper days {handed:?}",
            slowed + 1
        );
        assert_contained(ran, 0);
    }
}
