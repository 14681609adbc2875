package core

import (
	"slices"
	"strings"
	"testing"

	"gccache/internal/model"
)

func TestByNameBuildsEachServingPolicy(t *testing.T) {
	geo := model.NewFixed(8)
	want := map[string]string{
		"item-lru":    "item-lru",
		"clock":       "item-clock",
		"block-lru":   "block-lru",
		"blie":        "block-load-item-evict",
		"footprint":   "footprint",
		"athreshold2": "a-threshold(a=2)",
		"fifo":        "item-fifo",
		"marking":     "item-marking",
		"gcm":         "gcm",
		"iblp":        "iblp(i=32,b=32)",
		"iblp-even":   "iblp(i=32,b=32)",
		"adaptive":    "adaptive-iblp(k=64)",
	}
	for name, want := range want {
		build, err := ByName(name, geo, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c := build(64)
		if got := c.Name(); got != want {
			t.Errorf("%s: built %q, want %q", name, got, want)
		}
		if c.Capacity() != 64 {
			t.Errorf("%s: capacity %d, want 64", name, c.Capacity())
		}
	}
	// PolicyNames is gcsim's -policy all order, and every name in it builds.
	order := []string{"item-lru", "clock", "block-lru", "blie", "footprint",
		"athreshold2", "fifo", "marking", "gcm", "iblp", "adaptive"}
	if got := PolicyNames(); !slices.Equal(got, order) {
		t.Errorf("PolicyNames() = %v, want %v", got, order)
	}
	_, err := ByName("iblp-promote-all", geo, 1)
	if err == nil || !strings.Contains(err.Error(), "unknown policy") || !strings.Contains(err.Error(), strings.Join(order, ", ")) {
		t.Errorf("ByName accepted a name outside the table, or its error does not list the table (err=%v)", err)
	}
}
