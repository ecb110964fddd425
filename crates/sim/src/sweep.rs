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
//! A format supplies only its payload codec ([`CheckpointFormat`]); the file
//! protocol — framing, the `.bak` and `.corrupt` generations, the durable
//! tmp+sync+rename writer — is `terse_analyze::integrity`'s.

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
    /// units (`0` is treated as `1`).
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

    /// Units per flush.
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

    /// Computes [`Sweep::units`] in batches of the checkpoint's `every_n`
    /// (one batch without a checkpoint) through `batch`, which returns each
    /// unit of its argument with its result. The checkpoint is flushed after
    /// every batch and removed once the sweep is complete; the result holds
    /// every unit in index order.
    ///
    /// # Errors
    ///
    /// `batch`'s errors, checkpoint write failures, and
    /// [`SweepError::Interrupted`] when the budget left units pending.
    pub fn run<E: From<SweepError>>(
        mut self,
        mut batch: impl FnMut(&[usize]) -> Result<Vec<(usize, F::Unit)>, E>,
    ) -> Result<Vec<F::Unit>, E> {
        let every_n = self.ckpt.map_or(self.run.len(), Checkpoint::every_n);
        for units in self.run.chunks(every_n.max(1)) {
            for (u, result) in batch(units)? {
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
