package cluster

import (
	"context"

	"sprinklers/internal/experiment"
)

// MaxPeerBodyBytes is the cap on what the cluster reads from a peer.
const MaxPeerBodyBytes = maxPeerBodyBytes

// DispatchOnce sends a one-replica lease of key to the worker pick
// chooses, once, and returns how the dispatch ended.
func (c *Coordinator) DispatchOnce(ctx context.Context, spec experiment.Spec, key experiment.PointKey) error {
	return c.send(ctx, c.pick(nil), spec, key, 0, 1, func(int, experiment.Point, string) {})
}
