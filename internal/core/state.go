package core

import "repro/internal/snapshot"

// SaveState serializes the system's full mutable state into a snapshot
// payload: module identity and topology (for restore validation), the
// memory system (controllers, mitigations, every device's cells), and
// every channel/rank's disturbance and retention model. Restores
// overlay a system rebuilt from the same spec (core.Build is
// deterministic), so configuration — mapping policy, mitigation
// roster, fault-model populations — is reconstructed, then every
// mutable field is replaced with the checkpointed value.
func (s *System) SaveState(w *snapshot.Writer) {
	w.Tag("core.System")
	w.String(s.Module.ID)
	w.U64(s.Module.Seed)
	w.Int(s.Topo.Channels)
	w.Int(s.Topo.Ranks)
	w.Int(s.Topo.Geom.Banks)
	w.Int(s.Topo.Geom.Rows)
	w.Int(s.Topo.Geom.Cols)
	s.Mem.SaveState(w)
	for ch := 0; ch < s.Topo.Channels; ch++ {
		for rk := 0; rk < s.Topo.Ranks; rk++ {
			s.Disturbs[ch][rk].SaveState(w)
			s.Retentions[ch][rk].SaveState(w)
		}
	}
}

// LoadState restores state saved by SaveState into a system built from
// the same module and options. Module identity and topology are
// verified before anything is overlaid.
func (s *System) LoadState(r *snapshot.Reader) error {
	r.Tag("core.System")
	id := r.String()
	seed := r.U64()
	chs, rks := r.Int(), r.Int()
	banks, rows, cols := r.Int(), r.Int(), r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if id != s.Module.ID || seed != s.Module.Seed {
		return snapshot.Mismatchf("checkpoint is for module %q seed %d, have %q seed %d",
			id, seed, s.Module.ID, s.Module.Seed)
	}
	if chs != s.Topo.Channels || rks != s.Topo.Ranks ||
		banks != s.Topo.Geom.Banks || rows != s.Topo.Geom.Rows || cols != s.Topo.Geom.Cols {
		return snapshot.Mismatchf("checkpoint topology %dx%d/%dx%dx%d disagrees with system %+v",
			chs, rks, banks, rows, cols, s.Topo)
	}
	if err := s.Mem.LoadState(r); err != nil {
		return err
	}
	for ch := 0; ch < s.Topo.Channels; ch++ {
		for rk := 0; rk < s.Topo.Ranks; rk++ {
			if err := s.Disturbs[ch][rk].LoadState(r); err != nil {
				return err
			}
			if err := s.Retentions[ch][rk].LoadState(r); err != nil {
				return err
			}
		}
	}
	return nil
}
