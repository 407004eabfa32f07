package trace

import "testing"

// ChunkRecords exposes the producer's publication granularity to the
// external streaming tests.
const ChunkRecords = chunkRecords

// SetChunkHook installs f as the producer's per-chunk hook until the test
// ends. Only producers started after the call run it.
func SetChunkHook(t testing.TB, f func(start int)) {
	chunkHook.Store(&f)
	t.Cleanup(func() { chunkHook.Store(nil) })
}
