package server

import (
	"fmt"
	"os"
	"time"

	"oic/pkg/oic"
)

// Artifact-store wiring: the engine cache consults a content-addressed
// on-disk catalogue before paying for set compilation and DRL training,
// and writes freshly built engines back. The cache key and the store key
// are the same canonical config fingerprint (oic.Config.Fingerprint), so
// an engine built by `oic export` on another machine serves here without
// recomputing anything.

// OpenArtifactStore attaches the on-disk artifact store rooted at dir.
// Call before serving traffic (the store pointer is not synchronized).
func (s *Server) OpenArtifactStore(dir string) error {
	store, err := oic.OpenArtifactStore(dir)
	if err != nil {
		return err
	}
	store.SetFaults(s.faults)
	s.store = store
	return nil
}

// ArtifactStats snapshots the store's hit/miss/corrupt/write counters
// (zero value when no store is attached).
func (s *Server) ArtifactStats() oic.ArtifactStoreStats {
	if s.store == nil {
		return oic.ArtifactStoreStats{}
	}
	return s.store.Stats()
}

// loadFromStore tries to materialize cfg's engine from the artifact
// store. A decoded artifact whose fingerprint disagrees with the lookup
// key is dropped as corrupt (content addressing means the file was
// tampered with or collided); any failure falls back to an in-process
// build, so a damaged store degrades to cold-start behavior instead of
// erroring requests.
func (s *Server) loadFromStore(key string) (*oic.Engine, bool) {
	if s.store == nil {
		return nil, false
	}
	a, err := s.store.Get(key)
	if a == nil || err != nil {
		return nil, false
	}
	if oic.ConfigFromArtifact(a).Fingerprint() != key {
		s.store.MarkCorrupt(key)
		return nil, false
	}
	eng, err := s.loadEngine(a)
	if err != nil {
		s.store.MarkCorrupt(key)
		return nil, false
	}
	s.m.enginesLoaded.Add(1)
	return eng, true
}

// loadEngine runs oic.LoadEngine and observes its wall time, failed loads
// included, in oicd_engine_load_seconds.
func (s *Server) loadEngine(a *oic.Artifact) (*oic.Engine, error) {
	start := time.Now()
	eng, err := oic.LoadEngine(a)
	s.m.engineLoadHist.Observe(time.Since(start).Seconds())
	return eng, err
}

// writeBack persists a freshly built engine so the next process (or the
// next corrupted-entry rebuild) starts warm. Best-effort: a full disk or
// an unsnapshottable policy must not fail the request that built the
// engine.
func (s *Server) writeBack(key string, eng *oic.Engine) {
	if s.store == nil {
		return
	}
	a, err := eng.Artifact()
	if err != nil {
		return
	}
	_ = s.store.Put(key, a)
}

// BeginPreload flips the server into the preloading state (readyz 503)
// and returns the closure that materializes every store entry into the
// engine cache; run it on a background goroutine and let it flip
// readiness back when done. Split this way so callers observe 503 from
// the moment the server is constructed, with no startup race window.
//
// The closure returns the engines it loaded and the store files it
// skipped. A file that fails to decode or to load is handled as a lookup
// handles it: counted in oicd_artifact_corrupt_total and removed, so the
// first request for its config rebuilds and writes back a healed entry.
// A file that fails to read is left in place. Every skip is logged with
// its path and error.
func (s *Server) BeginPreload() (run func() (loaded, skipped int, err error), err error) {
	if s.store == nil {
		return nil, fmt.Errorf("server: preload requested without an artifact store")
	}
	s.preloading.Store(true)
	return func() (loaded, skipped int, err error) {
		defer s.preloading.Store(false)
		files, err := s.store.Files()
		if err != nil {
			return 0, 0, err
		}
		skip := func(path string, err error) {
			skipped++
			s.log.Warn("preload skipped artifact", "path", path, "error", err)
		}
		for _, path := range files {
			b, err := os.ReadFile(path)
			if err != nil {
				skip(path, err)
				continue
			}
			a, err := oic.DecodeArtifact(b)
			if err != nil {
				s.store.MarkCorruptFile(path)
				skip(path, err)
				continue
			}
			key := oic.ConfigFromArtifact(a).Fingerprint()
			eng, err := s.loadEngine(a)
			if err != nil {
				s.store.MarkCorruptFile(path)
				skip(path, err)
				continue
			}
			s.mu.Lock()
			_, exists := s.engines[key]
			full := len(s.engines) >= s.cfg.MaxEngines
			if !exists && !full {
				slot := &engineSlot{eng: eng}
				slot.once.Do(func() {}) // pre-fire: serving requests never rebuild
				s.engines[key] = slot
			}
			s.mu.Unlock()
			if exists || full {
				continue
			}
			s.m.artifactPreloaded.Add(1)
			loaded++
		}
		return loaded, skipped, nil
	}, nil
}
