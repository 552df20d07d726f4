//go:build race

package journal

// raceEnabled reports a -race build. Its sync.Pool drops a share of Puts
// on purpose, so pooled buffers allocate there.
const raceEnabled = true
