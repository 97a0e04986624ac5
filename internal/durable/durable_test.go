package durable

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"joinopt/internal/faults"
	"joinopt/internal/obs"
	"joinopt/internal/pipeline"
	"joinopt/internal/relation"
)

func openT(t *testing.T, dir string, opts Options) (*Store, *Recovered) {
	t.Helper()
	s, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, rec
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, rec := openT(t, dir, Options{})
	if len(rec.Jobs) != 0 || rec.MaxSeq != 0 {
		t.Fatalf("cold start recovered %+v", rec)
	}
	req := json.RawMessage(`{"tau_g":5,"tau_b":50}`)
	s.Append(Record{Seq: 1, Event: EventSubmitted, JobID: "j000001", Tenant: "a", Request: req})
	s.Append(Record{Seq: 1, Event: EventStarted, JobID: "j000001"})
	s.Append(Record{Seq: 2, Event: EventSubmitted, JobID: "j000002", Tenant: "b", Request: req})
	s.Append(Record{Seq: 1, Event: EventFinished, JobID: "j000001", State: "done"})
	s.Close()

	_, rec2 := openT(t, dir, Options{})
	if len(rec2.Jobs) != 2 || rec2.MaxSeq != 2 || rec2.CorruptLines != 0 {
		t.Fatalf("recovered %+v", rec2)
	}
	j1, j2 := rec2.Jobs[0], rec2.Jobs[1]
	if j1.ID != "j000001" || !j1.Started || j1.State != "done" || j1.Tenant != "a" {
		t.Errorf("job 1 recovered as %+v", j1)
	}
	if j2.ID != "j000002" || j2.Started || j2.Finished() || string(j2.Request) != string(req) {
		t.Errorf("job 2 recovered as %+v", j2)
	}
}

func TestJournalTornTailAndBitFlip(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, Options{})
	for i := uint64(1); i <= 3; i++ {
		s.Append(Record{Seq: i, Event: EventSubmitted, JobID: "j" + strings.Repeat("0", 5) + string(rune('0'+i)), Tenant: "t"})
	}
	s.Close()

	// A crash mid-append leaves a torn final line; a bit flip damages a
	// middle one. Both must be skipped, both counted, the rest recovered.
	path := filepath.Join(dir, "journal.ndjson")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("journal has %d lines", len(lines))
	}
	flipped := []byte(lines[1])
	flipped[len(flipped)/2] ^= 0x10
	mangled := lines[0] + string(flipped) + lines[2][:len(lines[2])/2]
	if err := os.WriteFile(path, []byte(mangled), 0o644); err != nil {
		t.Fatal(err)
	}

	m := obs.NewRegistry()
	_, rec := openT(t, dir, Options{Metrics: m})
	if len(rec.Jobs) != 1 || rec.Jobs[0].ID != "j000001" {
		t.Fatalf("recovered %+v, want only the intact first job", rec.Jobs)
	}
	if rec.CorruptLines != 2 {
		t.Errorf("CorruptLines = %d, want 2", rec.CorruptLines)
	}
	if got := m.Counter(obs.Series(obs.MetricDurableErrs, "op", "replay")).Value(); got != 2 {
		t.Errorf("durable_errors{op=replay} = %v, want 2", got)
	}
}

func TestCompactionRewritesJournalAtomically(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, Options{})
	s.Append(Record{Seq: 1, Event: EventSubmitted, JobID: "j000001"})
	s.Close()
	// Append garbage; the next Open must compact it away.
	f, _ := os.OpenFile(filepath.Join(dir, "journal.ndjson"), os.O_APPEND|os.O_WRONLY, 0o644)
	f.WriteString("{\"crc\":1,\"rec\":{}}\nnot json at all\n")
	f.Close()

	s2, rec := openT(t, dir, Options{})
	if len(rec.Jobs) != 1 || rec.CorruptLines != 2 {
		t.Fatalf("recovered %+v", rec)
	}
	s2.Close()
	_, rec2 := openT(t, dir, Options{})
	if rec2.CorruptLines != 0 || len(rec2.Jobs) != 1 {
		t.Fatalf("compaction did not drop the damage: %+v", rec2)
	}
}

func TestSnapshotRoundTripAndCorruptReject(t *testing.T) {
	dir := t.TempDir()
	m := obs.NewRegistry()
	s, _ := openT(t, dir, Options{Metrics: m})
	payload := []byte(`{"version":1,"crc":42,"checkpoint":{"phase":3}}`)
	s.SaveCheckpoint("j000001", payload)
	got, ok := s.LoadCheckpoint("j000001")
	if !ok || string(got) != string(payload) {
		t.Fatalf("LoadCheckpoint = %q, %v", got, ok)
	}
	if _, ok := s.LoadCheckpoint("j000099"); ok {
		t.Fatal("phantom checkpoint")
	}

	// Flip one payload bit on disk: the load must reject, delete, and
	// degrade — never return the damaged bytes.
	path := filepath.Join(dir, "snapshots", "j000001.ckpt")
	raw, _ := os.ReadFile(path)
	raw[len(raw)-4] ^= 0x01
	os.WriteFile(path, raw, 0o644)
	if _, ok := s.LoadCheckpoint("j000001"); ok {
		t.Fatal("corrupt checkpoint accepted")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("corrupt snapshot not deleted")
	}
	if deg, why := s.Degraded(); !deg || !strings.Contains(why, "checksum") {
		t.Errorf("Degraded() = %v, %q after corrupt snapshot", deg, why)
	}
	if got := m.Counter(obs.Series(obs.MetricDurableErrs, "op", "snapshot")).Value(); got != 1 {
		t.Errorf("durable_errors{op=snapshot} = %v, want 1", got)
	}
}

func TestSaveResultSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, Options{})
	s.SaveResult("j000007", []byte(`{"good":12,"bad":3}`))
	s.Close()
	s2, _ := openT(t, dir, Options{})
	got, ok := s2.LoadResult("j000007")
	if !ok || string(got) != `{"good":12,"bad":3}` {
		t.Fatalf("LoadResult = %q, %v", got, ok)
	}
}

func TestCacheTierRoundTripAndNamespaces(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, Options{})
	a := s.CacheTier("w-seed1")
	b := s.CacheTier("w-seed2")
	k := pipeline.Key{Side: 1, DocID: 42, Theta: 0.8}
	tuples := []relation.Tuple{{A1: "acme", A2: "boston"}, {A1: "initech", A2: "austin"}}
	a.Store(k, tuples)
	if got, ok := a.Load(k); !ok || len(got) != 2 || got[0] != tuples[0] || got[1] != tuples[1] {
		t.Fatalf("tier Load = %v, %v", got, ok)
	}
	if _, ok := b.Load(k); ok {
		t.Fatal("namespaces leaked: seed2 sees seed1's extraction")
	}
	// Survives a restart.
	s.Close()
	s2, _ := openT(t, dir, Options{})
	if got, ok := s2.CacheTier("w-seed1").Load(k); !ok || len(got) != 2 {
		t.Fatalf("tier entry lost across restart: %v, %v", got, ok)
	}
}

func TestCacheTierDiscardsCorruptEntries(t *testing.T) {
	dir := t.TempDir()
	m := obs.NewRegistry()
	s, _ := openT(t, dir, Options{Metrics: m})
	tier := s.CacheTier("w")
	k := pipeline.Key{Side: 0, DocID: 7, Theta: 0.4}
	tier.Store(k, []relation.Tuple{{A1: "x", A2: "y"}})

	files, _ := filepath.Glob(filepath.Join(dir, "cache", "w", "*"))
	if len(files) != 1 {
		t.Fatalf("cache dir holds %d files", len(files))
	}
	raw, _ := os.ReadFile(files[0])
	raw[len(raw)-3] ^= 0x40
	os.WriteFile(files[0], raw, 0o644)

	if _, ok := tier.Load(k); ok {
		t.Fatal("corrupt cache entry served")
	}
	if _, err := os.Stat(files[0]); !os.IsNotExist(err) {
		t.Error("corrupt cache entry not discarded")
	}
	if got := m.Counter(obs.Series(obs.MetricDurableErrs, "op", "cache")).Value(); got != 1 {
		t.Errorf("durable_errors{op=cache} = %v, want 1", got)
	}
	// A single corrupt cache entry must NOT degrade the store: re-extraction
	// is the ordinary miss path.
	if deg, _ := s.Degraded(); deg {
		t.Error("store degraded over one disposable cache entry")
	}
}

func TestInjectedCorruptionRejectedByChecksum(t *testing.T) {
	// dcorrupt=1 flips a bit in every read-back; nothing read under it may
	// ever be trusted, and the daemon degrades rather than dies.
	dir := t.TempDir()
	clean, _ := openT(t, dir, Options{})
	clean.Append(Record{Seq: 1, Event: EventSubmitted, JobID: "j000001"})
	clean.SaveCheckpoint("j000001", []byte(`{"p":1}`))
	clean.Close()

	p, err := faults.Parse("seed=3,dcorrupt=1")
	if err != nil {
		t.Fatal(err)
	}
	s, rec := openT(t, dir, Options{Faults: faults.DiskFaults(p)})
	if len(rec.Jobs) != 0 || rec.CorruptLines == 0 {
		t.Fatalf("corrupted journal still yielded jobs: %+v", rec)
	}
	if _, ok := s.LoadCheckpoint("j000001"); ok {
		t.Fatal("corrupted checkpoint accepted")
	}
}

func TestPersistentWriteFaultsDegradeNotFail(t *testing.T) {
	p, err := faults.Parse("seed=5,dwrite=1,permanent=true")
	if err != nil {
		t.Fatal(err)
	}
	m := obs.NewRegistry()
	dir := t.TempDir()
	s, _, err := Open(dir, Options{Faults: faults.DiskFaults(p), Metrics: m})
	if err != nil {
		t.Fatalf("Open must absorb disk faults, got %v", err)
	}
	defer s.Close()
	s.Append(Record{Seq: 1, Event: EventSubmitted, JobID: "j000001"})
	deg, why := s.Degraded()
	if !deg {
		t.Fatal("permanent write fault did not degrade the store")
	}
	if why == "" {
		t.Error("degraded without a reason")
	}
	// Degraded operation: everything keeps no-opping, nothing panics.
	s.SaveCheckpoint("j000001", []byte(`{}`))
	if _, ok := s.LoadCheckpoint("j000001"); ok {
		t.Fatal("degraded store persisted a checkpoint")
	}
	if got := m.Counter(obs.Series(obs.MetricDurableErrs, "op", "append")).Value(); got < 1 {
		t.Errorf("durable_errors{op=append} = %v, want >= 1", got)
	}
}

func TestTransientSyncFaultsDegradeAfterThreshold(t *testing.T) {
	p, err := faults.Parse("seed=9,dsync=1")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s, _, err := Open(dir, Options{Faults: faults.DiskFaults(p), DegradeAfter: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Open already consumed some write/sync budget (compaction); appends
	// keep failing until the threshold trips.
	for i := uint64(1); i <= 5; i++ {
		s.Append(Record{Seq: i, Event: EventSubmitted, JobID: "jx"})
	}
	if deg, _ := s.Degraded(); !deg {
		t.Fatal("store survived 5 consecutive sync failures undegraded")
	}
}

func TestFreezeStopsAllWrites(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, Options{})
	s.Append(Record{Seq: 1, Event: EventSubmitted, JobID: "j000001"})
	s.SaveCheckpoint("j000001", []byte(`{"p":1}`))
	tier := s.CacheTier("w")
	s.Freeze()
	s.Append(Record{Seq: 1, Event: EventStarted, JobID: "j000001"})
	s.SaveCheckpoint("j000001", []byte(`{"p":2}`))
	tier.Store(pipeline.Key{DocID: 1}, []relation.Tuple{{A1: "a"}})
	s.Close()

	s2, rec := openT(t, dir, Options{})
	if len(rec.Jobs) != 1 || rec.Jobs[0].Started {
		t.Fatalf("post-freeze write reached disk: %+v", rec.Jobs)
	}
	if ck, ok := s2.LoadCheckpoint("j000001"); !ok || string(ck) != `{"p":1}` {
		t.Fatalf("checkpoint = %q, %v, want the pre-freeze one", ck, ok)
	}
	if _, ok := s2.CacheTier("w").Load(pipeline.Key{DocID: 1}); ok {
		t.Fatal("post-freeze cache write reached disk")
	}
}

func TestNilStoreIsInert(t *testing.T) {
	var s *Store
	s.Append(Record{})
	s.SaveCheckpoint("x", nil)
	s.SaveResult("x", nil)
	if _, ok := s.LoadCheckpoint("x"); ok {
		t.Fatal("nil store load")
	}
	if _, ok := s.LoadResult("x"); ok {
		t.Fatal("nil store load")
	}
	if tier := s.CacheTier("w"); tier != nil {
		t.Fatal("nil store returned a tier")
	}
	if deg, _ := s.Degraded(); deg {
		t.Fatal("nil store degraded")
	}
	s.Freeze()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCacheTierConcurrentWritersOfOneEntry covers two Tasks of one workload
// writing the same cache entry at once (a job on an evicted registry Task
// and the Task's rebuild): every write lands whole, none is counted as a
// disk failure, and the entry reads back.
func TestCacheTierConcurrentWritersOfOneEntry(t *testing.T) {
	dir := t.TempDir()
	m := obs.NewRegistry()
	s, _ := openT(t, dir, Options{Metrics: m})
	k := pipeline.Key{Side: 1, DocID: 3, Theta: 0.5}
	want := []relation.Tuple{{A1: "acme", A2: "pine bluff"}}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		tier := s.CacheTier("w")
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tier.Store(k, want)
			}
		}()
	}
	wg.Wait()
	if n := m.Snapshot().Counters[obs.Series(obs.MetricDurableErrs, "op", "cache")]; n != 0 {
		t.Errorf("concurrent writes counted %d cache errors", n)
	}
	got, ok := s.CacheTier("w").Load(k)
	if !ok || len(got) != 1 || got[0] != want[0] {
		t.Errorf("Load after concurrent writes = %v, %v", got, ok)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "cache", "w", "*"))
	if len(files) != 1 {
		t.Errorf("cache dir holds %v, want the one entry", files)
	}
}
