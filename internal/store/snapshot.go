package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"repro/internal/codec"
	"repro/internal/ledger"
	"repro/internal/spec"
	"repro/internal/wfrun"
)

// The snapshot layer persists a compact binary form of every parsed
// run next to the authoritative XML, so a cold store (a restarted
// provserved, a CI job, a new replica) rebuilds its in-memory caches
// by decoding snapshots instead of re-parsing and re-deriving XML.
//
// Layout, per specification (backend keys):
//
//	<spec>/snapshot/manifest.json   index of snapshotted runs
//	<spec>/snapshot/runs.seg        append-only run frames
//	<spec>/snapshot/spec.bin        binary specification frame
//
// The segment is append-only: every snapshotted run is one
// checksummed codec frame at a recorded offset, and the manifest maps
// run names to (offset, length, codec version, node/edge counts) plus
// the SHA-256 of the run's XML blob. A manifest entry is only
// trusted when that digest still matches the stored XML, so
// out-of-band edits to the authoritative blobs simply demote the
// snapshot to a miss. Deleting or re-importing a run drops its entry;
// the dead bytes stay in the segment until the compaction threshold
// is crossed, exactly like a log-structured store.
//
// Everything here is a cache of the XML: any read error, checksum
// mismatch, codec version skew or fingerprint drift falls back to the
// XML re-parse (which then repairs the snapshot write-behind). Losing
// the snapshot keys can never lose data.

// manifestVersion guards the manifest JSON schema itself. Version 2
// added content hashing (frame hash, XML hash, ledger batch seq); a
// version-1 manifest is discarded wholesale, its segment bytes counted
// dead, and every run re-snapshots — with hashes — on its next load.
// Version-2 manifests written before the xml_size/xml_mod_nanos stat
// fields were dropped still decode: JSON ignores the extra fields.
const manifestVersion = 2

// compactMinDeadBytes and compactMinDeadRatio bound segment garbage:
// a manifest save triggers compaction once the segment holds at least
// compactMinDeadBytes of dead frames and they exceed
// compactMinDeadRatio of the file.
const (
	compactMinDeadBytes = 1 << 20
	compactMinDeadRatio = 0.5
)

// snapEntry indexes one run frame inside the segment.
type snapEntry struct {
	Offset int64 `json:"offset"`
	Length int64 `json:"length"`
	Codec  int   `json:"codec"` // codec.Version the frame was written with
	Nodes  int   `json:"nodes"`
	Edges  int   `json:"edges"`
	// XMLSHA256 is the hex SHA-256 of the authoritative XML blob the
	// frame was derived from; freshness rests on it alone.
	XMLSHA256 string `json:"xml_sha256"`
	// Hash is the hex SHA-256 content hash of the codec frame (the
	// frame's ledger identity); Batch is the seq of the ledger record
	// that most recently committed it.
	Hash  string `json:"hash"`
	Batch int64  `json:"batch"`
}

// snapManifest is the JSON document at snapshot/manifest.json.
type snapManifest struct {
	Version int                  `json:"version"`
	Live    int64                `json:"live_bytes"`
	Dead    int64                `json:"dead_bytes"`
	Runs    map[string]snapEntry `json:"runs"`
}

// snapState is the in-memory snapshot state of one specification.
// Guarded by Store.snapMu: manifest mutations and segment appends are
// rare (imports, deletes) and serialize; reads copy the entry out and
// release the lock before touching the segment blob.
type snapState struct {
	mu       sync.Mutex
	manifest *snapManifest
	loaded   bool
	// Ledger append cursor: seq and head of the last record in
	// ledger.log, loaded lazily alongside the manifest.
	ledgerLoaded bool
	ledgerSeq    int64
	ledgerHead   ledger.Hash
}

// Snapshot-layer backend keys.
func manifestKey(specName string) string { return specName + "/snapshot/manifest.json" }
func segmentKey(specName string) string  { return specName + "/snapshot/runs.seg" }
func specBinKey(specName string) string  { return specName + "/snapshot/spec.bin" }
func ledgerKey(specName string) string   { return specName + "/snapshot/ledger.log" }

// snap returns the snapshot state for a spec, creating it on first
// use. The manifest itself is loaded lazily under the state lock.
func (s *Store) snap(specName string) *snapState {
	s.snapsMu.Lock()
	defer s.snapsMu.Unlock()
	st, ok := s.snaps[specName]
	if !ok {
		st = &snapState{}
		s.snaps[specName] = st
	}
	return st
}

// loadManifestLocked reads manifest.json if present; a missing,
// unreadable or wrong-version manifest becomes an empty one (every
// run is then a snapshot miss). Whatever the segment already holds is
// then untracked, so it is all counted dead — compaction reclaims the
// orphaned bytes instead of the segment growing without bound after a
// manifest loss. Caller holds st.mu.
func (s *Store) loadManifestLocked(specName string, st *snapState) {
	if st.loaded {
		return
	}
	st.loaded = true
	data, err := s.be.ReadFile(manifestKey(specName))
	if err == nil {
		var m snapManifest
		if err := json.Unmarshal(data, &m); err == nil && m.Version == manifestVersion && m.Runs != nil {
			st.manifest = &m
			return
		}
	}
	st.manifest = &snapManifest{Version: manifestVersion, Runs: map[string]snapEntry{}}
	if fi, err := s.be.Stat(segmentKey(specName)); err == nil {
		st.manifest.Dead = fi.Size
	}
}

// saveManifestLocked writes the manifest atomically (the backend's
// WriteFile contract). Caller holds st.mu.
func (s *Store) saveManifestLocked(specName string, st *snapState) error {
	data, err := json.MarshalIndent(st.manifest, "", "  ")
	if err != nil {
		return err
	}
	return s.be.WriteFile(manifestKey(specName), append(data, '\n'))
}

// xmlDigest is the hex SHA-256 of a run's XML bytes — the
// fingerprint a manifest entry records and freshness checks compare.
func xmlDigest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// xmlFingerprint digests a run's stored XML blob.
func (s *Store) xmlFingerprint(specName, runName string) (string, error) {
	data, err := s.be.ReadFile(runXMLKey(specName, runName))
	if err != nil {
		return "", err
	}
	return xmlDigest(data), nil
}

// fresh reports whether a manifest entry still describes this XML.
// Content hash decides; an entry written before hashing existed (empty
// XMLSHA256) is never fresh.
func (e snapEntry) fresh(sha string) bool {
	return e.XMLSHA256 != "" && e.XMLSHA256 == sha
}

// hasFreshSnapshot reports whether a run has a live manifest entry of
// the current codec version whose XML content hash matches the stored
// blob — the freshness probe (no segment read, no decode) behind
// Snapshot's idempotency. A frame that is fresh by this test but
// corrupt in the segment still self-heals on the next load.
func (s *Store) hasFreshSnapshot(specName, runName string) bool {
	st := s.snap(specName)
	st.mu.Lock()
	s.loadManifestLocked(specName, st)
	e, ok := st.manifest.Runs[runName]
	st.mu.Unlock()
	if !ok || e.Codec != codec.Version {
		return false
	}
	sha, err := s.xmlFingerprint(specName, runName)
	return err == nil && e.fresh(sha)
}

// segmentRecord frames one run inside the segment file: the run name,
// length-prefixed, followed by the codec frame. The name is part of
// the record so a reader can never mistake one run's frame for
// another's — a reader racing a compaction may land its stale offset
// on a different, equal-length record whose checksum verifies, and
// only the embedded name catches that.
func segmentRecord(runName string, frame []byte) []byte {
	out := binary.AppendUvarint(make([]byte, 0, len(runName)+len(frame)+binary.MaxVarintLen32), uint64(len(runName)))
	out = append(out, runName...)
	return append(out, frame...)
}

// parseSegmentRecord splits a record into its run name and frame.
func parseSegmentRecord(buf []byte) (runName string, frame []byte, err error) {
	n, w := binary.Uvarint(buf)
	if w <= 0 || n > uint64(len(buf)-w) {
		return "", nil, fmt.Errorf("store: malformed segment record header")
	}
	return string(buf[w : w+int(n)]), buf[w+int(n):], nil
}

// loadRunSnapshot attempts the snapshot fast path for one run: a
// manifest entry whose fingerprint matches the stored XML, a segment
// record naming this very run whose frame checksum verifies, and a
// frame that decodes against the spec. Any failure returns
// (nil, false) and the caller re-parses XML.
func (s *Store) loadRunSnapshot(specName, runName string, sp *spec.Spec) (*wfrun.Run, bool) {
	st := s.snap(specName)
	st.mu.Lock()
	s.loadManifestLocked(specName, st)
	e, ok := st.manifest.Runs[runName]
	st.mu.Unlock()
	if !ok || e.Codec != codec.Version {
		return nil, false
	}
	sha, err := s.xmlFingerprint(specName, runName)
	if err != nil || !e.fresh(sha) {
		return nil, false
	}
	buf := make([]byte, e.Length)
	if err := s.be.ReadAt(segmentKey(specName), buf, e.Offset); err != nil {
		return nil, false
	}
	name, frame, err := parseSegmentRecord(buf)
	if err != nil || name != runName {
		return nil, false
	}
	r, err := codec.DecodeRun(frame, sp)
	if err != nil {
		return nil, false
	}
	return r, true
}

// snapBatchItem is one run of a batched snapshot append.
type snapBatchItem struct {
	name string
	run  *wfrun.Run
	sha  string // xmlDigest of the XML the run was parsed from
}

// writeRunSnapshot appends a freshly parsed run to the segment and
// records it in the manifest — the write-behind half of the snapshot
// cache, called after every XML parse. The caller supplies the digest
// of the very bytes it parsed: if the blob was overwritten since, the
// recorded digest no longer matches the store and the entry demotes
// itself to a miss instead of serving a stale frame. Errors are
// returned for callers that care (Snapshot); the LoadRun path treats
// them as best-effort.
func (s *Store) writeRunSnapshot(specName, runName string, r *wfrun.Run, sha string) error {
	_, err := s.writeRunSnapshotBatch(specName, []snapBatchItem{
		{name: runName, run: r, sha: sha},
	}, false)
	return err
}

// writeRunSnapshotBatch appends many runs in one pass: frames are
// encoded up front, the segment grows by ONE backend append, and the
// manifest is rewritten once however many runs the batch carries —
// bulk imports would otherwise pay one full-manifest rewrite per run.
// With durable set the segment append is synced before the manifest
// records the frames — the group-commit durability point of the
// ingest pipeline. The write-behind cache paths leave it unset; they
// can always re-parse the authoritative XML. Compaction afterwards is
// maintenance: its failure leaves the committed batch as it is and is
// not reported.
//
// The batch is also one ledger record: every item's frame content
// hash becomes a Merkle leaf, the batch root is chained onto the
// spec's ledger head, and the record is appended to ledger.log before
// the manifest commits to it. The write order — segment (synced),
// ledger (synced), manifest — means a crash at any boundary leaves
// the previous manifest pointing at still-valid append-only state.
//
// A run whose name AND frame hash match its live manifest entry is
// deduped: the old segment bytes are reused (valid forever under
// append-only + compaction-of-live), no new frame is written, and the
// run is simply re-attested in the new batch record. Bulk re-imports
// of identical runs therefore cost hashing, not segment growth.
//
// Returns the hex content hash of each item's frame, aligned with
// items.
func (s *Store) writeRunSnapshotBatch(specName string, items []snapBatchItem, durable bool) ([]string, error) {
	if len(items) == 0 {
		return nil, nil
	}
	records := make([][]byte, len(items))
	hashes := make([]string, len(items))
	leafs := make([]ledger.BatchLeaf, len(items))
	for i, it := range items {
		frame, err := codec.EncodeRun(it.run)
		if err != nil {
			return nil, err
		}
		h := codec.ContentHash(frame)
		hashes[i] = hex.EncodeToString(h[:])
		leafs[i] = ledger.BatchLeaf{Run: it.name, Hash: hashes[i]}
		records[i] = segmentRecord(it.name, frame)
	}
	st := s.snap(specName)
	st.mu.Lock()
	defer st.mu.Unlock()
	s.loadManifestLocked(specName, st)
	s.loadLedgerLocked(specName, st)
	var off int64
	if fi, err := s.be.Stat(segmentKey(specName)); err == nil {
		off = fi.Size
	}
	var seg bytes.Buffer
	entries := make([]snapEntry, len(items))
	for i, it := range items {
		if old, ok := st.manifest.Runs[it.name]; ok && old.Codec == codec.Version && old.Hash == hashes[i] &&
			s.segmentFrameIntact(specName, it.name, old) {
			// Dedup: identical frame already live (and verified intact)
			// in the segment.
			e := old
			e.XMLSHA256 = it.sha
			entries[i] = e
			continue
		}
		entries[i] = snapEntry{
			Offset:    off + int64(seg.Len()),
			Length:    int64(len(records[i])),
			Codec:     codec.Version,
			Nodes:     it.run.NumNodes(),
			Edges:     it.run.NumEdges(),
			XMLSHA256: it.sha,
			Hash:      hashes[i],
		}
		seg.Write(records[i])
	}
	if seg.Len() > 0 {
		if err := s.be.Append(segmentKey(specName), seg.Bytes(), durable); err != nil {
			return nil, err
		}
	}
	rec, err := ledger.NewRecord(st.ledgerSeq+1, st.ledgerHead, leafs)
	if err != nil {
		return nil, err
	}
	line, err := ledger.MarshalRecord(rec)
	if err != nil {
		return nil, err
	}
	if err := s.be.Append(ledgerKey(specName), line, durable); err != nil {
		return nil, err
	}
	st.ledgerSeq = rec.Seq
	st.ledgerHead, _ = ledger.Parse(rec.Head)
	for i, it := range items {
		if old, ok := st.manifest.Runs[it.name]; ok && old.Offset != entries[i].Offset {
			st.manifest.Dead += old.Length
			st.manifest.Live -= old.Length
		}
		e := entries[i]
		e.Batch = rec.Seq
		if _, ok := st.manifest.Runs[it.name]; !ok || st.manifest.Runs[it.name].Offset != e.Offset {
			st.manifest.Live += e.Length
		}
		st.manifest.Runs[it.name] = e
	}
	if err := s.saveManifestLocked(specName, st); err != nil {
		return nil, err
	}
	_ = s.maybeCompactLocked(specName, st)
	return hashes, nil
}

// segmentFrameIntact re-reads a manifest entry's segment record and
// checks it still carries this run's frame with the recorded content
// hash — the guard that keeps dedup from re-attesting bytes that were
// corrupted or lost since the entry was written. A reused entry is
// therefore always backed by verified bytes; a failed check simply
// costs a fresh append.
func (s *Store) segmentFrameIntact(specName, runName string, e snapEntry) bool {
	buf := make([]byte, e.Length)
	if err := s.be.ReadAt(segmentKey(specName), buf, e.Offset); err != nil {
		return false
	}
	name, frame, err := parseSegmentRecord(buf)
	if err != nil || name != runName {
		return false
	}
	h := codec.ContentHash(frame)
	return hex.EncodeToString(h[:]) == e.Hash
}

// readLedger loads a spec's ledger log through the backend — the
// byte-level twin of ledger.ReadLog.
func (s *Store) readLedger(specName string) ([]ledger.Record, error) {
	data, err := s.be.ReadFile(ledgerKey(specName))
	if err != nil {
		if isNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	recs, _, perr := ledger.ParseLog(data)
	return recs, perr
}

// loadLedgerLocked positions the append cursor at the tail of the
// spec's ledger log — and repairs a torn tail first. A crash mid-
// append leaves a partial final line; readers tolerate it, but a
// subsequent append would weld new bytes onto the torn fragment,
// merging them into one malformed MIDDLE line that VerifyLedger can
// no longer tell from tampering. Truncating back to the valid prefix
// before any further append keeps crash debris and tampering
// distinguishable. A malformed interior line is NOT repaired here —
// appends continue from the last parseable record and VerifyLedger is
// the one to report the damage. Caller holds st.mu.
func (s *Store) loadLedgerLocked(specName string, st *snapState) {
	if st.ledgerLoaded {
		return
	}
	st.ledgerLoaded = true
	data, err := s.be.ReadFile(ledgerKey(specName))
	if err != nil {
		return
	}
	recs, valid, perr := ledger.ParseLog(data)
	if perr == nil && valid < len(data) {
		// Torn tail from a crashed append: truncate to the valid prefix.
		_ = s.be.WriteFile(ledgerKey(specName), data[:valid])
	}
	if len(recs) == 0 {
		return
	}
	last := recs[len(recs)-1]
	st.ledgerSeq = last.Seq
	st.ledgerHead, _ = ledger.Parse(last.Head)
}

// dropRunSnapshot removes a run's manifest entry (delete and
// re-import paths). The frame bytes become dead weight until
// compaction.
func (s *Store) dropRunSnapshot(specName, runName string) {
	st := s.snap(specName)
	st.mu.Lock()
	defer st.mu.Unlock()
	s.loadManifestLocked(specName, st)
	e, ok := st.manifest.Runs[runName]
	if !ok {
		return
	}
	delete(st.manifest.Runs, runName)
	st.manifest.Dead += e.Length
	st.manifest.Live -= e.Length
	if err := s.saveManifestLocked(specName, st); err != nil {
		return
	}
	s.maybeCompactLocked(specName, st)
}

// maybeCompactLocked rewrites the segment without dead frames once
// they dominate. Caller holds st.mu.
func (s *Store) maybeCompactLocked(specName string, st *snapState) error {
	m := st.manifest
	if m.Dead < compactMinDeadBytes || float64(m.Dead) < compactMinDeadRatio*float64(m.Dead+m.Live) {
		return nil
	}
	return s.compactLocked(specName, st)
}

// Compact rewrites a spec's snapshot segment without its dead bytes
// now, regardless of the automatic thresholds — an operational lever
// (and test hook) over the same code path the thresholds trigger.
// The ledger is untouched: compaction moves live frames, it does not
// change them, so every inclusion proof survives byte-for-byte.
func (s *Store) Compact(specName string) error {
	if err := ValidateName(specName); err != nil {
		return err
	}
	st := s.snap(specName)
	st.mu.Lock()
	defer st.mu.Unlock()
	s.loadManifestLocked(specName, st)
	if _, err := s.be.Stat(segmentKey(specName)); err != nil {
		if isNotExist(err) {
			return nil // nothing snapshotted yet
		}
		return err
	}
	return s.compactLocked(specName, st)
}

// compactLocked is the segment rewrite itself. Caller holds st.mu. A
// reader that raced the atomic replacement sees offsets that no
// longer line up — the record it lands on either fails the frame
// checksum or names a different run, so it falls back to XML;
// compaction needs no reader coordination.
func (s *Store) compactLocked(specName string, st *snapState) error {
	m := st.manifest
	old, err := s.be.ReadFile(segmentKey(specName))
	if err != nil {
		return err
	}
	fresh := make(map[string]snapEntry, len(m.Runs))
	var out bytes.Buffer
	for name, e := range m.Runs {
		if e.Offset < 0 || e.Offset+e.Length > int64(len(old)) {
			return fmt.Errorf("store: segment entry %q out of bounds", name)
		}
		rec := old[e.Offset : e.Offset+e.Length]
		e.Offset = int64(out.Len())
		out.Write(rec)
		fresh[name] = e
	}
	if err := s.be.WriteFile(segmentKey(specName), out.Bytes()); err != nil {
		return err
	}
	m.Runs = fresh
	m.Live = int64(out.Len())
	m.Dead = 0
	return s.saveManifestLocked(specName, st)
}

// writeSpecSnapshot persists the binary spec frame (best-effort).
func (s *Store) writeSpecSnapshot(specName string, sp *spec.Spec) error {
	return s.be.WriteFile(specBinKey(specName), codec.EncodeSpec(sp))
}

// loadSpecSnapshot attempts to decode spec.bin, guarded by the XML
// blob's fingerprint... specifications change so rarely that the
// guard is simply "spec.xml must not be newer than spec.bin".
func (s *Store) loadSpecSnapshot(specName string) (*spec.Spec, bool) {
	binInfo, err := s.be.Stat(specBinKey(specName))
	if err != nil {
		return nil, false
	}
	xmlInfo, err := s.be.Stat(specXMLKey(specName))
	if err != nil || xmlInfo.ModTime.After(binInfo.ModTime) {
		return nil, false
	}
	data, err := s.be.ReadFile(specBinKey(specName))
	if err != nil {
		return nil, false
	}
	sp, err := codec.DecodeSpec(data)
	if err != nil {
		return nil, false
	}
	return sp, true
}

// SnapshotStats reports what a Snapshot pass did.
type SnapshotStats struct {
	Runs      int // runs examined
	Fresh     int // already snapshotted and up to date
	Written   int // snapshot frames written (or rewritten)
	LiveBytes int64
	DeadBytes int64
}

// Snapshot materializes the snapshot layer for every stored run of a
// specification: runs without a fresh manifest entry are parsed from
// XML and appended to the segment, and the spec's own binary frame is
// written. It is idempotent — a second call writes nothing.
func (s *Store) Snapshot(specName string) (SnapshotStats, error) {
	var stats SnapshotStats
	sp, err := s.LoadSpec(specName)
	if err != nil {
		return stats, err
	}
	if err := s.writeSpecSnapshot(specName, sp); err != nil {
		return stats, err
	}
	names, err := s.ListRuns(specName)
	if err != nil {
		return stats, err
	}
	stats.Runs = len(names)
	for _, name := range names {
		if s.hasFreshSnapshot(specName, name) {
			stats.Fresh++
			continue
		}
		// Parse from XML and snapshot; LoadRun's write-behind would do
		// this too, but going through loadRunXML keeps the accounting
		// exact even when the run is already in the memory cache.
		r, sha, err := s.loadRunXML(specName, name, sp)
		if err != nil {
			return stats, err
		}
		if err := s.writeRunSnapshot(specName, name, r, sha); err != nil {
			return stats, err
		}
		s.cacheRun(specName, name, r)
		stats.Written++
	}
	st := s.snap(specName)
	st.mu.Lock()
	// Load explicitly: with zero runs the loop above never touched the
	// manifest and it may still be nil.
	s.loadManifestLocked(specName, st)
	stats.LiveBytes = st.manifest.Live
	stats.DeadBytes = st.manifest.Dead
	st.mu.Unlock()
	return stats, nil
}

// PreloadStats reports where a Preload pass got its runs from.
type PreloadStats struct {
	Spec         string
	Runs         int
	FromSnapshot int
	FromXML      int
}

// Preload warms the in-memory caches of one specification: the spec
// itself plus every stored run, decoded from the snapshot layer where
// possible and parsed from XML (with snapshot repair) otherwise. After
// Preload returns, LoadRun and the cohort paths never touch the parser
// for existing runs.
func (s *Store) Preload(specName string) (PreloadStats, error) {
	stats := PreloadStats{Spec: specName}
	sp, err := s.LoadSpec(specName)
	if err != nil {
		return stats, err
	}
	names, err := s.ListRuns(specName)
	if err != nil {
		return stats, err
	}
	stats.Runs = len(names)
	for _, name := range names {
		s.mu.RLock()
		_, cached := s.runs[runKey(specName, name)]
		s.mu.RUnlock()
		if cached {
			stats.FromSnapshot++ // already warm; count as non-parse
			continue
		}
		if r, ok := s.loadRunSnapshot(specName, name, sp); ok {
			s.cacheRun(specName, name, r)
			stats.FromSnapshot++
			continue
		}
		r, sha, err := s.loadRunXML(specName, name, sp)
		if err != nil {
			return stats, err
		}
		_ = s.writeRunSnapshot(specName, name, r, sha) // best-effort repair
		s.cacheRun(specName, name, r)
		stats.FromXML++
	}
	return stats, nil
}

// PreloadAll preloads every specification in the repository — the
// warm-start path provserved runs at boot. Specs are isolated from
// each other: one spec's unparseable run costs only that spec its
// warmth, the rest still preload; the joined error reports every
// failure alongside the stats of what did load.
func (s *Store) PreloadAll() ([]PreloadStats, error) {
	specs, err := s.ListSpecs()
	if err != nil {
		return nil, err
	}
	out := make([]PreloadStats, 0, len(specs))
	var errs []error
	for _, name := range specs {
		st, err := s.Preload(name)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		out = append(out, st)
	}
	return out, errors.Join(errs...)
}

// ManifestRuns returns the names of runs with live snapshot entries,
// mainly for tests and diagnostics.
func (s *Store) ManifestRuns(specName string) []string {
	st := s.snap(specName)
	st.mu.Lock()
	defer st.mu.Unlock()
	s.loadManifestLocked(specName, st)
	out := make([]string, 0, len(st.manifest.Runs))
	for name := range st.manifest.Runs {
		out = append(out, name)
	}
	return out
}
