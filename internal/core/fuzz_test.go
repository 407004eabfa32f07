package core

import (
	"encoding/json"
	"reflect"
	"testing"

	"malec/internal/config"
	"malec/internal/trace"
)

// FuzzCheckpointRestore decodes arbitrary bytes as a SystemState, the
// checkpoint's disk form, and restores it into a MALEC, a Base1ldst and a
// MALEC+WDU system. A restore must never panic, a restore it rejects
// must leave the system's state unchanged, and a system it accepts must
// keep warming without a panic. Each input starts from the same warmed
// state, so a failing input reproduces on its own. The seed corpus under
// testdata/fuzz holds a real MALEC capture.
func FuzzCheckpointRestore(f *testing.F) {
	recs := trace.NewGenerator(trace.Profiles["gzip"], 2).Generate(2000)
	var systems []*System
	var warmed []*SystemState
	for _, cfg := range []config.Config{config.MALEC(), config.Base1ldst(), config.MALECWithWDU(16)} {
		s := NewSystem(cfg)
		s.SetWarming(true)
		warmRecords(s, recs)
		systems = append(systems, s)
		warmed = append(warmed, s.CaptureState())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var st SystemState
		if json.Unmarshal(data, &st) != nil {
			return
		}
		for i, s := range systems {
			if err := s.RestoreState(warmed[i]); err != nil {
				t.Fatalf("%s: restoring the warmed state: %v", s.Cfg.Name, err)
			}
			before := s.CaptureState()
			if err := s.RestoreState(&st); err != nil {
				if !reflect.DeepEqual(s.CaptureState(), before) {
					t.Fatalf("%s: a refused restore (%v) changed the system", s.Cfg.Name, err)
				}
			} else {
				warmRecords(s, recs[:200])
			}
		}
	})
}
