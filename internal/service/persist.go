package service

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"dynamicrumor/internal/engine"
	"dynamicrumor/internal/obs"
	"dynamicrumor/internal/store"
)

// The service's durable run ledger (enabled by Config.StateDir): every
// accepted leader job is journalled at submission, and again when it reaches
// a client-visible terminal state. On restart, submissions without a
// settlement are re-adopted — re-created under their original IDs and
// re-enqueued in their original order — so a SIGKILL'd daemon resumes its
// in-flight work and clients polling GET /v1/runs/{id} pick up where they
// left off. Shutdown cancellations are deliberately NOT journalled as
// settlements: a graceful stop and a crash leave the same ledger, and both
// resume identically.
//
// Followers and cache hits are never journalled — a follower's result is
// its leader's, and a cache hit's result is already durable in the disk
// cache — so the ledger holds exactly the runs that own work.

// Journal record types of the service ledger.
const (
	recSubmit      byte = 1 // a leader job was accepted
	recSettle      byte = 2 // a job or sweep reached a terminal state
	recSweepSubmit byte = 3 // a sweep was accepted (cells are re-planned)
)

// journalCompactBytes is the ledger size that triggers snapshot compaction.
const journalCompactBytes = 1 << 20

// submitRecord is the recSubmit payload.
type submitRecord struct {
	ID          string          `json:"id"`
	Canonical   json.RawMessage `json:"canonical"`
	Reps        int             `json:"reps"`
	Seed        uint64          `json:"seed"`
	SubmittedAt time.Time       `json:"submitted_at"`
}

// settleRecord is the recSettle payload. Job and sweep IDs share the record
// type — their prefixes ("j", "s") keep the namespaces disjoint.
type settleRecord struct {
	ID string `json:"id"`
}

// sweepRecord is the recSweepSubmit payload. The cells are not journalled —
// planning is pure and deterministic, so recovery re-plans the recorded
// request (with the default stream captured at submission time, in case the
// daemon restarted with a different -stream-default) and re-adopts every
// cell under its original identity and cache key.
type sweepRecord struct {
	ID            string          `json:"id"`
	Request       json.RawMessage `json:"request"`
	DefaultStream int             `json:"default_stream,omitempty"`
	SubmittedAt   time.Time       `json:"submitted_at"`
}

// openLedger opens the service journal under dir, replays it into the
// not-yet-settled submission list, and re-adopts those jobs. Called from
// New before the dispatcher starts; no locking needed.
func (s *Service) openLedger(path string) error {
	// pendingEntry holds either kind of unsettled submission; replay order
	// across jobs and sweeps is preserved so re-adoption re-creates the
	// original FIFO queue.
	type pendingEntry struct {
		job   *submitRecord
		sweep *sweepRecord
	}
	var order []string
	pending := make(map[string]pendingEntry)
	j, err := store.OpenJournal(path, func(rec store.Record) error {
		switch rec.Type {
		case recSubmit:
			var sr submitRecord
			if err := json.Unmarshal(rec.Payload, &sr); err != nil {
				return fmt.Errorf("submit record: %w", err)
			}
			if _, ok := pending[sr.ID]; !ok {
				order = append(order, sr.ID)
			}
			pending[sr.ID] = pendingEntry{job: &sr}
		case recSweepSubmit:
			var sr sweepRecord
			if err := json.Unmarshal(rec.Payload, &sr); err != nil {
				return fmt.Errorf("sweep record: %w", err)
			}
			if _, ok := pending[sr.ID]; !ok {
				order = append(order, sr.ID)
			}
			pending[sr.ID] = pendingEntry{sweep: &sr}
		case recSettle:
			var st settleRecord
			if err := json.Unmarshal(rec.Payload, &st); err != nil {
				return fmt.Errorf("settle record: %w", err)
			}
			delete(pending, st.ID)
		}
		// Unknown record types are skipped: an older binary replaying a newer
		// ledger recovers what it understands.
		return nil
	})
	if err != nil {
		return err
	}
	s.journal = j
	for _, id := range order {
		entry, ok := pending[id]
		switch {
		case !ok:
		case entry.job != nil:
			s.recoverJob(*entry.job)
		case entry.sweep != nil:
			s.recoverSweep(*entry.sweep)
		}
	}
	// Compact at startup: settled pairs and any skipped records are dropped,
	// leaving one submit record per live job or sweep.
	return s.compactLedgerLocked()
}

// recoverSweep re-adopts one journalled, unsettled sweep: the recorded
// request is re-planned (planning is deterministic, so the cells carry
// their original IDs, labels and cache keys) and every cell goes down the
// admission ladder again — settled from the durable cache when its result
// survived the crash, coalesced onto an identical recovered run, or
// re-enqueued. Cells that all settle from the cache finalize the sweep
// immediately, exactly as a live sweep would.
func (s *Service) recoverSweep(sr sweepRecord) {
	var req SweepRequest
	if err := json.Unmarshal(sr.Request, &req); err != nil {
		s.log.Warn("service: recovery: sweep request no longer decodes, dropping", "sweep", sr.ID, "err", err)
		return
	}
	cells, err := planSweep(req, sr.DefaultStream)
	if err != nil {
		// The ledger outlived a planner or scenario schema change; dropping
		// the sweep is the only option that lets the daemon start.
		s.log.Warn("service: recovery: sweep no longer plans, dropping", "sweep", sr.ID, "err", err)
		return
	}
	now := s.clock()
	if sr.SubmittedAt.IsZero() {
		sr.SubmittedAt = now
	}
	sw := s.newSweepLocked(sr, req, len(cells))
	sw.journaled = true
	s.nextSweepID = max(s.nextSweepID, idNumber(sr.ID, "s"))
	s.sweepsRecovered++
	s.startSweepLocked(sw, cells, nil, now, true)
	s.log.Info("service: recovery: sweep re-adopted", "sweep", sw.id, "cells", sw.total, "settled", len(sw.settled))
}

// recoverJob re-adopts one journalled, unsettled submission under its
// original ID and sends it down the admission ladder again: served from the
// (disk) cache if the run completed and only its settle record was lost,
// coalesced onto an identical recovered run, or re-enqueued.
func (s *Service) recoverJob(sr submitRecord) {
	sc, err := engine.Parse(sr.Canonical)
	if err != nil {
		// The ledger outlived a scenario schema change; dropping the job is
		// the only option that lets the daemon start.
		s.log.Warn("service: recovery: job scenario no longer parses, dropping", "job", sr.ID, "err", err)
		return
	}
	now := s.clock()
	if sr.SubmittedAt.IsZero() {
		sr.SubmittedAt = now
	}
	pc := plannedCell{sc: sc, canonical: sr.Canonical, seed: sr.Seed, key: runKey(sr.Canonical, sr.Seed, sr.Reps)}
	j := s.newJobLocked(sr.ID, pc, sr.Reps, sr.SubmittedAt)
	j.journaled = true
	j.trace.Add(obs.Span{Name: "recovered", Start: now, End: now})
	s.nextID = max(s.nextID, idNumber(sr.ID, "j"))
	s.jobsRecovered++
	cached, hit := s.lookupCacheLocked(pc.key)
	s.admitLocked(j, cached, hit, now, true)
	s.log.Info("service: recovery: job admitted", "job", j.id, "state", j.state, "cache_hit", j.cacheHit, "coalesced_with", coalescedID(j))
}

// idNumber parses the sequence number of a job ("j…") or sweep ("s…") ID,
// so IDs minted after recovery never collide with recovered ones. Malformed
// IDs read as 0.
func idNumber(id, prefix string) int {
	n, _ := strconv.Atoi(strings.TrimPrefix(id, prefix))
	return n
}

// RecoveredKeys lists the run keys of jobs re-adopted into the queue at
// startup. A distributed backend prunes its own recovered run state against
// this set — a key the service no longer owns will never be re-submitted.
func (s *Service) RecoveredKeys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.recoveredKeys...)
}

// ledgerRecord renders a job's recSubmit record, both for its append at
// submission and for compaction snapshots.
func (j *job) ledgerRecord() (store.Record, error) {
	payload, err := json.Marshal(submitRecord{
		ID: j.id, Canonical: j.canonical, Reps: j.reps, Seed: j.seed, SubmittedAt: j.submitted,
	})
	return store.Record{Type: recSubmit, Payload: payload}, err
}

// ledgerRecord renders a sweep's recSweepSubmit record, both for its append
// at submission and for compaction snapshots.
func (sw *sweep) ledgerRecord() (store.Record, error) {
	payload, err := json.Marshal(sweepRecord{
		ID: sw.id, Request: sw.request, DefaultStream: sw.defaultStream, SubmittedAt: sw.submitted,
	})
	return store.Record{Type: recSweepSubmit, Payload: payload}, err
}

// journalSubmitLocked durably records an accepted leader job. An append
// failure is surfaced to the submitter — acknowledging a run the ledger
// cannot replay would break the durability contract. Callers hold the mutex.
func (s *Service) journalSubmitLocked(j *job) error {
	if s.journal == nil {
		return nil
	}
	rec, err := j.ledgerRecord()
	if err == nil {
		err = s.journal.Append(rec)
	}
	j.journaled = err == nil
	return err
}

// journalSweepSubmitLocked durably records an accepted sweep. One fsync'd
// record covers the whole grid — cells are re-planned at recovery — so sweep
// admission pays a single journal append no matter how many cells it plans.
// Callers hold the mutex.
func (s *Service) journalSweepSubmitLocked(sw *sweep) error {
	if s.journal == nil {
		return nil
	}
	rec, err := sw.ledgerRecord()
	if err == nil {
		err = s.journal.Append(rec)
	}
	sw.journaled = err == nil
	return err
}

// journalSettleLocked records a client-visible terminal transition of a
// journalled job or sweep (unjournalled ones have nothing to settle), then
// compacts the ledger if it has grown past the threshold. Settle-record
// loss is harmless — the run or sweep would be re-adopted and served from
// the durable cache — so failures are logged, not fatal. Callers hold the
// mutex.
func (s *Service) journalSettleLocked(id string, journaled bool) {
	if s.journal == nil || !journaled {
		return
	}
	payload, err := json.Marshal(settleRecord{ID: id})
	if err == nil {
		err = s.journal.Append(store.Record{Type: recSettle, Payload: payload})
	}
	if err != nil {
		s.log.Warn("service: journal settle failed", "id", id, "err", err)
		return
	}
	if s.journal.Size() > journalCompactBytes {
		if err := s.compactLedgerLocked(); err != nil {
			s.log.Warn("service: journal compaction failed", "err", err)
		}
	}
}

// compactLedgerLocked rewrites the journal to one submit record per live
// journalled job or sweep — the snapshot that keeps the ledger's size
// proportional to in-flight work, not lifetime submissions. Records are
// written in submission-sequence order so a replay re-creates the original
// FIFO queue. Callers hold the mutex (or are in single-threaded startup).
func (s *Service) compactLedgerLocked() error {
	if s.journal == nil {
		return nil
	}
	type liveRecord struct {
		seq int
		rec store.Record
	}
	var live []liveRecord
	for _, id := range s.order {
		j := s.jobs[id]
		if !j.journaled || j.state.Terminal() {
			continue
		}
		rec, err := j.ledgerRecord()
		if err != nil {
			return err
		}
		live = append(live, liveRecord{seq: j.seq, rec: rec})
	}
	for _, id := range s.sweepOrder {
		sw := s.sweeps[id]
		if !sw.journaled || sw.state.Terminal() {
			continue
		}
		rec, err := sw.ledgerRecord()
		if err != nil {
			return err
		}
		live = append(live, liveRecord{seq: sw.seq, rec: rec})
	}
	sort.Slice(live, func(i, k int) bool { return live[i].seq < live[k].seq })
	records := make([]store.Record, 0, len(live))
	for _, lr := range live {
		records = append(records, lr.rec)
	}
	if err := s.journal.Rewrite(records); err != nil {
		return err
	}
	s.compactions++
	return nil
}
