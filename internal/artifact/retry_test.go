package artifact

import (
	"errors"
	"os"
	"testing"
	"time"

	"oic/internal/fault"
)

// storeWithFaults opens a store on a temp dir with injected faults and a
// no-op sleep so retry tests don't pay real backoff.
func storeWithFaults(t *testing.T, inj *fault.Injector) *Store {
	t.Helper()
	st, err := OpenStore(t.TempDir(), metaFingerprint)
	if err != nil {
		t.Fatal(err)
	}
	st.SetFaults(inj)
	st.sleep = func(time.Duration) {}
	return st
}

// Transient read failures within the retry budget are absorbed: the Get
// succeeds, and every absorbed failure is counted.
func TestStoreGetRetriesTransientFailures(t *testing.T) {
	inj := fault.New(1)
	inj.FailFirst(fault.SiteArtifactRead, 2)
	st := storeWithFaults(t, inj)
	a := sample(false)
	fp := metaFingerprint(a)
	if err := st.Put(fp, a); err != nil {
		t.Fatal(err)
	}
	got, err := st.Get(fp)
	if err != nil || got == nil {
		t.Fatalf("Get = (%v, %v), want artifact", got, err)
	}
	s := st.Stats()
	if s.Retries != 2 || s.Hits != 1 {
		t.Fatalf("stats = %+v, want 2 retries and 1 hit", s)
	}
}

// A persistent read failure exhausts the bounded budget and surfaces the
// underlying error — the loop never spins unbounded. The entry was never
// read, so it is kept and not counted corrupt.
func TestStoreGetRetryBudgetExhausted(t *testing.T) {
	inj := fault.New(1)
	inj.Enable(fault.SiteArtifactRead, 1)
	st := storeWithFaults(t, inj)
	fp := metaFingerprint(sample(false))
	if err := st.Put(fp, sample(false)); err != nil {
		t.Fatal(err)
	}
	_, err := st.Get(fp)
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("err = %v, want injected failure", err)
	}
	s := st.Stats()
	if s.Retries != MaxReadRetries || s.Corrupt != 0 {
		t.Fatalf("retries = %d, corrupt = %d; want %d and 0", s.Retries, s.Corrupt, MaxReadRetries)
	}
	if _, err := os.Stat(st.Path(fp)); err != nil {
		t.Fatalf("entry removed after read failures: %v", err)
	}
	if got := inj.Calls(fault.SiteArtifactRead); got != MaxReadRetries+1 {
		t.Fatalf("read attempts = %d, want %d", got, MaxReadRetries+1)
	}
}

// A miss is a terminal outcome, never retried.
func TestStoreGetMissNotRetried(t *testing.T) {
	st := storeWithFaults(t, nil)
	got, err := st.Get("absent")
	if got != nil || err != nil {
		t.Fatalf("Get = (%v, %v), want (nil, nil)", got, err)
	}
	if s := st.Stats(); s.Retries != 0 || s.Misses != 1 {
		t.Fatalf("stats = %+v, want a plain miss", s)
	}
}

// Write faults are loud — a failed Put reports the injected error and
// leaves no entry behind.
func TestStorePutFaultIsLoud(t *testing.T) {
	inj := fault.New(1)
	inj.FailFirst(fault.SiteArtifactWrite, 1)
	st := storeWithFaults(t, inj)
	fp := metaFingerprint(sample(false))
	if err := st.Put(fp, sample(false)); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Put err = %v, want injected failure", err)
	}
	if got, err := st.Get(fp); got != nil || err != nil {
		t.Fatalf("entry exists after failed Put: (%v, %v)", got, err)
	}
	if err := st.Put(fp, sample(false)); err != nil {
		t.Fatalf("second Put: %v", err)
	}
	if got, err := st.Get(fp); got == nil || err != nil {
		t.Fatalf("Get after recovery = (%v, %v)", got, err)
	}
}
