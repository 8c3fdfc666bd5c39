package workload

import (
	"cmp"
	"fmt"

	"repro/internal/netsim"
)

// Validate checks structural sanity: peers in range, sends and recvs
// pairwise balanced per (src, dst, tag) so replay cannot deadlock on a
// missing message. Of several unmatched messages it names the lowest
// (src, dst, tag), so the error is the same on every call.
func (t *Trace) Validate() error {
	type key struct{ src, dst, tag int }
	balance := map[key]int{}
	for r, prog := range t.Programs {
		for i, op := range prog {
			if op.Kind == netsim.OpCompute {
				continue
			}
			if op.Peer < 0 || op.Peer >= t.Ranks {
				return fmt.Errorf("workload %s: rank %d op %d peer %d out of range", t.Name, r, i, op.Peer)
			}
			if op.Peer == r {
				return fmt.Errorf("workload %s: rank %d op %d sends to itself", t.Name, r, i)
			}
			switch op.Kind {
			case netsim.OpSend:
				balance[key{r, op.Peer, op.MTag}]++
			case netsim.OpRecv:
				balance[key{op.Peer, r, op.MTag}]--
			}
		}
	}
	var low key
	found := false
	for k, v := range balance {
		if v != 0 && (!found || cmp.Or(cmp.Compare(k.src, low.src), cmp.Compare(k.dst, low.dst), cmp.Compare(k.tag, low.tag)) < 0) {
			low, found = k, true
		}
	}
	if !found {
		return nil
	}
	return fmt.Errorf("workload %s: unmatched message src=%d dst=%d tag=%d (balance %+d)",
		t.Name, low.src, low.dst, low.tag, balance[low])
}
