package core

import (
	"strings"
	"testing"

	"gccache/internal/model"
)

func TestByNameBuildsEachServingPolicy(t *testing.T) {
	geo := model.NewFixed(8)
	for name, want := range map[string]string{
		"item-lru":  "item-lru",
		"block-lru": "block-lru",
		"iblp":      "iblp(i=32,b=32)",
		"iblp-even": "iblp(i=32,b=32)",
		"gcm":       "gcm",
		"adaptive":  "adaptive-iblp(k=64)",
	} {
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
	if _, err := ByName("iblp-promote-all", geo, 1); err == nil || !strings.Contains(err.Error(), "unknown policy") {
		t.Errorf("ByName accepted a policy outside the serving set (err=%v)", err)
	}
}
