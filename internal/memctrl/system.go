package memctrl

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/par"
)

// MemorySystem is a topology of channels: one Controller per channel,
// each driving its own rank set with an independent refresh engine,
// mitigation registry and stats. Flat physical addresses are routed
// through the active MappingPolicy, so the same request stream
// exercises different channel/rank/bank interleavings under different
// policies.
//
// Channels are fully independent — separate devices, controllers and
// clocks — which is what makes channel-sharded simulation bit-identical
// to serial execution (see ShardChannels).
type MemorySystem struct {
	policy MappingPolicy
	chans  []*Controller
}

// Assemble builds a memory system of topo under the named mapping
// policy. It builds one device per channel and rank, channel-major,
// and hands each to attach, which installs that device's remap and
// fault models, before wiring the controllers through NewSystem. It is
// the one topology builder: a bad topology or an unknown mapping is an
// error, not a panic.
func Assemble(topo dram.Topology, mapping string, cfg Config, attach func(ch, rk int, dev *dram.Device)) (*MemorySystem, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	policy, err := PolicyByName(mapping, topo)
	if err != nil {
		return nil, err
	}
	devs := make([][]*dram.Device, topo.Channels)
	for ch := range devs {
		devs[ch] = make([]*dram.Device, topo.Ranks)
		for rk := range devs[ch] {
			devs[ch][rk] = dram.NewDevice(topo.Geom)
			attach(ch, rk, devs[ch][rk])
		}
	}
	return NewSystem(devs, policy, cfg), nil
}

// NewSystem wires per-channel controllers over the given devices.
// devs is indexed [channel][rank] and must match the policy's topology.
// Every channel gets its own controller built from cfg.
func NewSystem(devs [][]*dram.Device, policy MappingPolicy, cfg Config) *MemorySystem {
	t := policy.Topology()
	if err := t.Validate(); err != nil {
		panic(err)
	}
	if len(devs) != t.Channels {
		panic(fmt.Sprintf("memctrl: %d channel device sets for topology %s", len(devs), t))
	}
	ms := &MemorySystem{policy: policy}
	for ch, ranks := range devs {
		if len(ranks) != t.Ranks {
			panic(fmt.Sprintf("memctrl: channel %d has %d ranks, topology %s", ch, len(ranks), t))
		}
		for rk, d := range ranks {
			if d.Geom != t.Geom {
				panic(fmt.Sprintf("memctrl: device ch%d/rk%d geometry %+v disagrees with topology geometry %+v", ch, rk, d.Geom, t.Geom))
			}
		}
		ms.chans = append(ms.chans, NewMultiRank(ranks, cfg))
	}
	return ms
}

// Policy returns the active mapping policy.
func (ms *MemorySystem) Policy() MappingPolicy { return ms.policy }

// Topology returns the system topology.
func (ms *MemorySystem) Topology() dram.Topology { return ms.policy.Topology() }

// Channels returns the number of channels.
func (ms *MemorySystem) Channels() int { return len(ms.chans) }

// Controller returns the controller of the given channel.
func (ms *MemorySystem) Controller(ch int) *Controller { return ms.chans[ch] }

// Device returns the device at the given channel and rank.
func (ms *MemorySystem) Device(ch, rank int) *dram.Device { return ms.chans[ch].Rank(rank) }

// Access performs one 64-bit read or write at a flat physical byte
// address, routed through the active policy to the owning channel.
func (ms *MemorySystem) Access(addr uint64, write bool, data uint64) (uint64, dram.Time) {
	return ms.AccessLoc(ms.policy.Decode(addr), write, data)
}

// AccessLoc performs one access at a pre-decoded location.
func (ms *MemorySystem) AccessLoc(l Loc, write bool, data uint64) (uint64, dram.Time) {
	return ms.chans[l.Channel].AccessLoc(l, write, data)
}

// Now returns the simulated time of the furthest-advanced channel.
// Channels run asynchronously; per-channel clocks are on Controller.
func (ms *MemorySystem) Now() dram.Time {
	var max dram.Time
	for _, c := range ms.chans {
		if c.Now() > max {
			max = c.Now()
		}
	}
	return max
}

// AggregateStats rolls the per-channel controller stats into one total.
func (ms *MemorySystem) AggregateStats() Stats {
	var total Stats
	for _, c := range ms.chans {
		total.Add(c.Stats)
	}
	return total
}

// AggregateDeviceStats rolls every device's stats into one total.
func (ms *MemorySystem) AggregateDeviceStats() dram.Stats {
	var total dram.Stats
	for _, c := range ms.chans {
		for i := 0; i < c.NumRanks(); i++ {
			s := c.Rank(i).Stats
			total.Activates += s.Activates
			total.Precharges += s.Precharges
			total.Reads += s.Reads
			total.Writes += s.Writes
			total.RowRefreshes += s.RowRefreshes
			total.OpEnergyPJ += s.OpEnergyPJ
		}
	}
	return total
}

// EnergyPJ returns total energy consumed across all channels.
func (ms *MemorySystem) EnergyPJ() float64 {
	total := 0.0
	for _, c := range ms.chans {
		total += c.EnergyPJ()
	}
	return total
}

// ShardChannels runs fn once per channel, sharding the channels across
// up to workers goroutines (workers <= 1 runs serially in channel
// order). Because channels share no mutable state — each has its own
// controller, devices and fault-model streams — sharded execution is
// bit-identical to serial execution; the equivalence test in
// system_test.go proves it. fn must confine itself to its channel's
// controller and devices.
func (ms *MemorySystem) ShardChannels(workers int, fn func(ch int, c *Controller)) {
	par.Shard(workers, len(ms.chans), func(ch int) { fn(ch, ms.chans[ch]) })
}
