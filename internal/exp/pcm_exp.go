package exp

import (
	"fmt"

	"repro/internal/pcm"
	"repro/internal/rng"
	"repro/internal/stats"
)

func init() {
	register("E20", "PCM malicious wear attack vs wear leveling (emerging memories)",
		"Section III: emerging memories \"likely to exhibit similar and perhaps even more exacerbated reliability issues\"", runE20)
}

// runE20 hammers one logical PCM line until first cell death under
// three mapping schemes.
func runE20(env Env) *stats.Table {
	t := stats.NewTable("E20: PCM write-attack lifetime (256 lines, 1e5 endurance, single hot line)",
		"scheme", "writes to failure", "fraction of ideal")
	src := rng.New(env.Seed ^ 0x20)
	schemes := []func() (pcm.Mapper, *pcm.Array){
		func() (pcm.Mapper, *pcm.Array) {
			return pcm.Direct{}, pcm.NewArray(256, 1e5, 0.1, src.Split())
		},
		func() (pcm.Mapper, *pcm.Array) {
			return pcm.NewStartGap(256, 100), pcm.NewArray(256, 1e5, 0.1, src.Split())
		},
		func() (pcm.Mapper, *pcm.Array) {
			return pcm.NewRandomized(pcm.NewStartGap(256, 100), 255, src.Split()),
				pcm.NewArray(256, 1e5, 0.1, src.Split())
		},
	}
	for _, mk := range schemes {
		m, a := mk()
		res := pcm.RunWriteAttack(a, m, 7, 5e9)
		t.AddRow(res.Scheme, fmt.Sprintf("%d", res.WritesToFailure),
			fmt.Sprintf("%.1f%%", 100*float64(res.WritesToFailure)/float64(res.IdealWrites)))
	}
	t.AddNote("expected: start-gap extends attack lifetime by orders of magnitude over no leveling;")
	t.AddNote("randomization defends against attackers that learn the rotation")
	return t
}
