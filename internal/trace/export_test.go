package trace

import "testing"

// SetGenHook installs f to run at the start of every generation until the
// test ends.
func SetGenHook(t testing.TB, f func()) {
	genHook.Store(&f)
	t.Cleanup(func() { genHook.Store(nil) })
}
