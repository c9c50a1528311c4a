//! The one order of every durable write: check, append, publish, fold.
//!
//! A write becomes visible to readers only once it is durable, as in
//! write-ahead logging (Mohan et al., "ARIES", TODS 1992).  Each function
//! here runs one write kind under the store's `save_lock`: it **checks**
//! the write (a refused write changes nothing), **appends** its records
//! through the store's one append step when the store has a directory
//! (`WorkflowStore::wal_append`, which fsyncs them; a failed or over-bound
//! append leaves the log as it was, see [`crate::wal`]), **publishes** it
//! in memory, then runs the threshold **fold** if one is due.  The fold
//! comes last because it snapshots memory and replaces the log: between a
//! write's append and its publish it would drop the write from disk.
//! Callers tell the derived indexes about a published run
//! ([`DiffService::notify_run_inserted`]); those are caches.

use super::{DiffService, ServiceError, StreamAck};
use crate::stream::{PartialRun, StreamEvent};
use crate::wal::{self, RunRemoveRecord, WalRecord};
use std::path::Path;
use std::sync::Arc;
use wfdiff_sptree::Run;

impl DiffService {
    /// Stores `run` under `name`, durably in `dir` when given — `POST
    /// /runs`.  The name must be free and the run validated against the
    /// stored version of its specification.
    pub fn commit_run_insert(
        &self,
        dir: Option<&Path>,
        name: &str,
        run: Run,
    ) -> Result<Arc<Run>, ServiceError> {
        let _save = self.store.save_lock.lock();
        let spec = self.store.check_insert(name, &run, false)?;
        self.store.wal_append_for(dir, &spec, |fp| vec![WalRecord::run_insert(fp, name, &run)])?;
        let run = self.store.insert_run(name, run)?;
        self.store.fold_if_due(dir);
        Ok(run)
    }

    /// Removes run `name` of `spec`, durably in `dir` when given.  Returns
    /// `false`, appending nothing, when no such run is stored.
    pub fn commit_run_removal(
        &self,
        dir: Option<&Path>,
        spec: &str,
        name: &str,
    ) -> Result<bool, ServiceError> {
        let _save = self.store.save_lock.lock();
        let Some(spec_arc) = self.store.spec(spec).filter(|_| self.store.run(spec, name).is_some())
        else {
            return Ok(false);
        };
        let record = RunRemoveRecord { spec: spec.to_string(), name: name.to_string() };
        self.store.wal_append_for(dir, &spec_arc, |_| vec![WalRecord::RunRemove(record)])?;
        self.store.remove_run(spec, name);
        self.store.fold_if_due(dir);
        Ok(true)
    }

    /// Applies one batch of events to stream `stream` of `spec`, opening it
    /// on first use, durably in `dir` when given — `POST /runs/stream`.
    /// With `finalize`, the completed stream is then stored as run `stream`
    /// and closed: the batch, the run's insert record and the closure
    /// marker are one append.  All or nothing: a rejected event, an
    /// incomplete stream, a taken name or a failed append leaves the stream
    /// as it was.
    pub fn commit_stream_batch(
        &self,
        dir: Option<&Path>,
        spec: &str,
        stream: &str,
        events: &[StreamEvent],
        finalize: bool,
    ) -> Result<(StreamAck, Option<Arc<Run>>), ServiceError> {
        let _save = self.store.save_lock.lock();
        let spec_arc =
            self.store.spec(spec).ok_or_else(|| ServiceError::UnknownSpec(spec.to_string()))?;
        let key = (spec.to_string(), stream.to_string());
        // The batch is applied to a clone of the stream's builder.
        let prior = self.streams.read().get(&key).cloned();
        let mut next = match prior {
            Some(p) if p.spec().fingerprint() != spec_arc.fingerprint() => {
                return Err(ServiceError::InvalidQuery(format!(
                    "stream {stream:?} was opened against a replaced version of \
                     specification {spec:?}; remove it and start over"
                )));
            }
            Some(p) => p,
            None if self.store.run(spec, stream).is_some() => {
                return Err(ServiceError::InvalidQuery(format!(
                    "stream name {stream:?} already names a stored run of specification {spec:?}"
                )));
            }
            None => PartialRun::new(Arc::clone(&spec_arc)),
        };
        let base_seq = next.applied();
        for event in events {
            next.apply(event)?;
        }
        let ack = StreamAck {
            base_seq,
            seq: next.applied(),
            nodes: next.node_count(),
            completed_leaves: next.profile().completed_leaves(),
            complete: next.is_complete(),
        };
        let run = finalize.then(|| next.finalize()).transpose()?;
        if let Some(run) = &run {
            self.store.check_insert(stream, run, false)?;
        }
        self.store.wal_append_for(dir, &spec_arc, |fp| {
            let mut records =
                wal::stream_records(spec, fp, stream, base_seq, events.iter().map(Some));
            if let Some(run) = &run {
                records.push(WalRecord::run_insert(fp, stream, run));
                records.extend(wal::stream_records(spec, fp, stream, ack.seq, [None]));
            }
            records
        })?;
        let stored = run.map(|run| self.store.insert_run(stream, run)).transpose()?;
        match stored {
            Some(_) => self.streams.write().remove(&key),
            None => self.streams.write().insert(key, next),
        };
        self.store.fold_if_due(dir);
        Ok((ack, stored))
    }

    /// Drops stream `stream` of `spec` without storing a run — `DELETE
    /// /runs/{spec}/{stream}/stream`.  With `dir`, its closure marker is
    /// durable before the stream leaves the registry.  Returns the events
    /// the stream had applied.
    pub fn commit_stream_close(
        &self,
        dir: Option<&Path>,
        spec: &str,
        stream: &str,
    ) -> Result<u64, ServiceError> {
        let _save = self.store.save_lock.lock();
        let unknown =
            || ServiceError::UnknownStream { spec: spec.to_string(), stream: stream.to_string() };
        let seq = self.stream_seq(spec, stream).ok_or_else(unknown)?;
        let spec_arc = self.store.spec(spec).ok_or_else(unknown)?;
        self.store.wal_append_for(dir, &spec_arc, |fp| {
            wal::stream_records(spec, fp, stream, seq, [None])
        })?;
        self.remove_stream(spec, stream);
        self.store.fold_if_due(dir);
        Ok(seq)
    }
}
