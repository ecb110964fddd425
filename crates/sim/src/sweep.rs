//! One resumable sweep: the batched driver behind both of TERSE's long
//! computations.
//!
//! The estimate builds Eq. 2's `p^c`/`p^e` tables once per basic block
//! (`TERSECP1`); the Monte Carlo validation counts errors once per
//! `(chip, input)` cell (`TERSEMC1`). Each unit is a pure function of its
//! index — a block's tables consume no RNG, and a cell draws from its own
//! counter-based stream — so one rule resumes both: skip the units already
//! stored, compute the rest in batches, flush after each batch, and stop at
//! the budget. The result is bitwise identical to an uninterrupted run
//! however often the sweep is cut.
//!
//! Progress is stored and budgeted in units, but a batch is cut in *work
//! items*: the caller maps each unit to the item that computes it, and a
//! batch holds `every_n` whole items. For the estimate an item is one block,
//! i.e. one unit. For the Monte Carlo grid an item is one `(lane group,
//! input)` task — one trace replay for up to 64 chips — so a flush never
//! splits a task's lanes across replays.
//!
//! A format supplies only its payload codec ([`CheckpointFormat`]); the file
//! protocol — framing, the `.bak` and `.corrupt` generations, the durable
//! tmp+sync+rename writer — is `terse_analyze::integrity`'s.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use terse_analyze::integrity;

/// Where a sweep keeps its checkpoint, and how often it flushes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    path: PathBuf,
    every_n: usize,
}

impl Checkpoint {
    /// A checkpoint at `path`, flushed after every `every_n` completed
    /// work items (`0` is treated as `1`; see [`Sweep::run`] for what an
    /// item is).
    pub fn new(path: impl Into<PathBuf>, every_n: usize) -> Self {
        Checkpoint {
            path: path.into(),
            every_n: every_n.max(1),
        }
    }

    /// The checkpoint file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Work items per flush.
    pub fn every_n(&self) -> usize {
        self.every_n
    }
}

/// One checkpoint payload format: the sweep's unit type and the codec of
/// its bare image. A format value carries the run context its images are
/// bound to (context hash, unit count, shape).
pub trait CheckpointFormat {
    /// One sweep unit's stored result.
    type Unit;

    /// The first eight bytes of every image; a bare (unframed) image that
    /// starts with them predates framing and still loads.
    const MAGIC: [u8; 8];

    /// Units in the sweep.
    fn units(&self) -> usize;

    /// The bare image of the completed units (`None` = not yet computed).
    fn encode(&self, slots: &[Option<Self::Unit>]) -> Vec<u8>;

    /// Parses a bare image into per-unit slots.
    ///
    /// # Errors
    ///
    /// An image that is malformed or belongs to a different run.
    fn parse(&self, image: &[u8]) -> Result<Vec<Option<Self::Unit>>, String>;
}

/// Why a sweep stopped without a result. Each caller maps it into its own
/// error type's checkpoint and interruption variants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepError {
    /// The checkpoint could not be read or written, or belongs to another
    /// run.
    Checkpoint(String),
    /// The unit budget ran out; the checkpoint (if any) holds the completed
    /// units and a re-run resumes from it.
    Interrupted {
        /// Units completed so far (and checkpointed).
        completed: usize,
        /// Units in the sweep.
        total: usize,
    },
}

impl From<SweepError> for crate::SimError {
    fn from(e: SweepError) -> Self {
        match e {
            SweepError::Checkpoint(m) => crate::SimError::Checkpoint(m),
            SweepError::Interrupted { completed, total } => {
                crate::SimError::Interrupted { completed, total }
            }
        }
    }
}

/// A sweep resumed from its checkpoint: the stored units, and the pending
/// units this call will compute.
pub struct Sweep<'a, F: CheckpointFormat> {
    format: &'a F,
    ckpt: Option<&'a Checkpoint>,
    slots: Vec<Option<F::Unit>>,
    /// Pending units, ascending, capped at the budget.
    run: Vec<usize>,
    /// Pending units before the cap.
    pending: usize,
}

impl<'a, F: CheckpointFormat> Sweep<'a, F> {
    /// Loads the checkpoint (a fresh start without one) and selects the
    /// pending units this call computes: all of them, or the first `budget`
    /// (`0` is treated as `1`, so every call makes progress).
    ///
    /// # Errors
    ///
    /// [`SweepError::Checkpoint`] for an unreadable checkpoint or one from a
    /// different run. A damaged image is not an error (see
    /// `terse_analyze::integrity`).
    pub fn start(
        format: &'a F,
        ckpt: Option<&'a Checkpoint>,
        budget: Option<usize>,
    ) -> Result<Self, SweepError> {
        let total = format.units();
        let loaded = match ckpt {
            Some(ck) => integrity::load_checkpoint(ck.path(), &F::MAGIC, |b| format.parse(b))
                .map_err(SweepError::Checkpoint)?,
            None => None,
        };
        let slots = loaded.unwrap_or_else(|| (0..total).map(|_| None).collect());
        let mut run: Vec<usize> = (0..total).filter(|&u| slots[u].is_none()).collect();
        let pending = run.len();
        run.truncate(budget.map_or(usize::MAX, |b| b.max(1)));
        Ok(Sweep {
            format,
            ckpt,
            slots,
            run,
            pending,
        })
    }

    /// The units this call computes, ascending.
    pub fn units(&self) -> &[usize] {
        &self.run
    }

    /// Computes [`Sweep::units`] in batches through `batch`, which returns
    /// each unit of its argument with its result.
    ///
    /// `item_of` maps a unit to its work item: the units one computation
    /// serves together. A batch holds the units of the checkpoint's
    /// `every_n` whole items in ascending item order (every item in one
    /// batch without a checkpoint). Only the units this call computes are
    /// grouped, so an item the budget or an earlier run cut through passes
    /// just its pending units. The checkpoint is flushed after every batch
    /// and removed once the sweep is complete; the result holds every unit
    /// in index order.
    ///
    /// # Errors
    ///
    /// `batch`'s errors, checkpoint write failures, and
    /// [`SweepError::Interrupted`] when the budget left units pending.
    pub fn run<E: From<SweepError>>(
        mut self,
        item_of: impl Fn(usize) -> usize,
        mut batch: impl FnMut(&[usize]) -> Result<Vec<(usize, F::Unit)>, E>,
    ) -> Result<Vec<F::Unit>, E> {
        let mut items: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for &u in &self.run {
            items.entry(item_of(u)).or_default().push(u);
        }
        let items: Vec<Vec<usize>> = items.into_values().collect();
        let every_n = self.ckpt.map_or(items.len(), Checkpoint::every_n);
        for chunk in items.chunks(every_n.max(1)) {
            for (u, result) in batch(&chunk.concat())? {
                self.slots[u] = Some(result);
            }
            if let Some(ck) = self.ckpt {
                integrity::store_checkpoint(ck.path(), &self.format.encode(&self.slots))
                    .map_err(SweepError::Checkpoint)?;
            }
        }
        let total = self.slots.len();
        if self.run.len() < self.pending {
            return Err(SweepError::Interrupted {
                completed: total - (self.pending - self.run.len()),
                total,
            }
            .into());
        }
        if let Some(ck) = self.ckpt {
            integrity::finish_checkpoint(ck.path()).map_err(SweepError::Checkpoint)?;
        }
        Ok(self.slots.into_iter().flatten().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sweep whose unit `u` computes to `u`; its images are never read
    /// back.
    struct Units(usize);
    impl CheckpointFormat for Units {
        type Unit = usize;
        const MAGIC: [u8; 8] = *b"TESTUNIT";
        fn units(&self) -> usize {
            self.0
        }
        fn encode(&self, _: &[Option<usize>]) -> Vec<u8> {
            Self::MAGIC.to_vec()
        }
        fn parse(&self, _: &[u8]) -> Result<Vec<Option<usize>>, String> {
            Err("never resumed".into())
        }
    }

    /// Runs a 10-unit sweep with three units per item and returns the
    /// batches it computed and how it ended.
    fn batches(
        ckpt: Option<&Checkpoint>,
        budget: Option<usize>,
    ) -> (Vec<Vec<usize>>, Result<Vec<usize>, SweepError>) {
        let format = Units(10);
        let mut seen = Vec::new();
        let result = Sweep::start(&format, ckpt, budget).and_then(|sweep| {
            sweep.run(
                |u| u / 3,
                |batch| {
                    seen.push(batch.to_vec());
                    Ok::<_, SweepError>(batch.iter().map(|&u| (u, u)).collect())
                },
            )
        });
        (seen, result)
    }

    #[test]
    fn batches_hold_whole_items_and_the_budget_counts_units() {
        let mut path = std::env::temp_dir();
        path.push(format!("terse_sweep_items_{}.bin", std::process::id()));
        let ck = Checkpoint::new(&path, 2);
        // Items {0,1,2} {3,4,5} {6,7,8} {9}: two whole items per flush.
        let (seen, result) = batches(Some(&ck), None);
        assert_eq!(seen, [vec![0, 1, 2, 3, 4, 5], vec![6, 7, 8, 9]]);
        assert_eq!(result, Ok((0..10).collect()));
        assert!(!path.exists(), "a finished sweep removes its checkpoint");
        // A budget of 7 units cuts item {6,7,8} after unit 6.
        let (seen, result) = batches(Some(&ck), Some(7));
        assert_eq!(seen, [vec![0, 1, 2, 3, 4, 5], vec![6]]);
        assert_eq!(
            result,
            Err(SweepError::Interrupted {
                completed: 7,
                total: 10
            })
        );
        integrity::finish_checkpoint(&path).unwrap();
        // Without a checkpoint every item runs in one batch.
        let (seen, _) = batches(None, None);
        assert_eq!(seen, [(0..10).collect::<Vec<_>>()]);
    }
}
