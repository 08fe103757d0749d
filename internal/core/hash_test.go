package core

import (
	"reflect"
	"testing"

	"repro/internal/dnn"
	"repro/internal/host"
	"repro/internal/layout"
	"repro/internal/optim"
)

func TestCanonicalHashEqualConfigs(t *testing.T) {
	a := DefaultConfig(dnn.GPT13B())
	b := DefaultConfig(dnn.GPT13B())
	if a.CanonicalHash() != b.CanonicalHash() {
		t.Fatal("equal configs hash differently")
	}
	// Hooks and trace sinks are explicitly outside the canonical state.
	b.ComputeHook = func(int64) {}
	if a.CanonicalHash() != b.CanonicalHash() {
		t.Fatal("ComputeHook changed the canonical hash")
	}
}

func TestCanonicalHashDistinguishesConfigs(t *testing.T) {
	base := DefaultConfig(dnn.GPT13B())
	h := base.CanonicalHash()
	other := DefaultConfig(dnn.GPT2XL())
	if other.CanonicalHash() == h {
		t.Fatal("different models hash equal")
	}
	ch := base
	ch.SSD.Channels++
	if ch.CanonicalHash() == h {
		t.Fatal("channel change not reflected in hash")
	}
}

// TestCanonicalHashPerturbation walks every exported, hashable leaf of
// Config by reflection, perturbs it, and requires the digest to change —
// the property that makes the search memo table alias-free: no two
// distinct design points can share a key.
func TestCanonicalHashPerturbation(t *testing.T) {
	base := DefaultConfig(dnn.GPT13B())
	baseHash := base.CanonicalHash()

	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			t_ := v.Type()
			for i := 0; i < t_.NumField(); i++ {
				f := t_.Field(i)
				if !f.IsExported() {
					continue
				}
				if f.Type.Kind() == reflect.Func || f.Type.Kind() == reflect.Interface {
					continue // explicitly unhashed (ComputeHook, Trace)
				}
				walk(path+"."+f.Name, v.Field(i))
			}
		case reflect.Bool:
			old := v.Bool()
			v.SetBool(!old)
			checkChanged(t, path, base, baseHash)
			v.SetBool(old)
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			old := v.Int()
			v.SetInt(old + 1)
			checkChanged(t, path, base, baseHash)
			v.SetInt(old)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			old := v.Uint()
			v.SetUint(old + 1)
			checkChanged(t, path, base, baseHash)
			v.SetUint(old)
		case reflect.Float32, reflect.Float64:
			old := v.Float()
			v.SetFloat(old*2 + 1)
			checkChanged(t, path, base, baseHash)
			v.SetFloat(old)
		case reflect.String:
			old := v.String()
			v.SetString(old + "x")
			checkChanged(t, path, base, baseHash)
			v.SetString(old)
		default:
			t.Fatalf("unhashable leaf kind %s at %s", v.Kind(), path)
		}
	}
	walk("Config", reflect.ValueOf(&base).Elem())

	if base.CanonicalHash() != baseHash {
		t.Fatal("perturbation walk did not restore the config")
	}
}

func checkChanged(t *testing.T, path string, cfg Config, baseHash uint64) {
	t.Helper()
	if cfg.CanonicalHash() == baseHash {
		t.Errorf("perturbing %s did not change the canonical hash", path)
	}
}

// hashPinConfigs are the configurations whose digests
// TestCanonicalHashDigestPins holds fixed: the default configuration of
// every zoo model, and GPT-13B perturbed along the search dimensions.
func hashPinConfigs() []Config {
	var cfgs []Config
	for _, m := range dnn.Zoo() {
		cfgs = append(cfgs, DefaultConfig(m))
	}
	for _, mutate := range []func(*Config){
		func(c *Config) { c.SSD.Channels = 16 },
		func(c *Config) { c.Optimizer = optim.LAMB },
		func(c *Config) { c.Layout = layout.Linear },
		func(c *Config) { c.Optimizer, c.GradAccum = optim.AdamA, 4 },
		func(c *Config) { c.LayerwiseOverlap = true },
		func(c *Config) { c.InterleaveDepth = 64 },
		func(c *Config) { c.Precision = optim.Q8State; c.Link = host.PCIe(4, 8) },
		func(c *Config) { c.SSD.Nand.PageSize, c.MaxSimUnits = 8192, 128 },
	} {
		c := DefaultConfig(dnn.GPT13B())
		mutate(&c)
		cfgs = append(cfgs, c)
	}
	return cfgs
}

// TestCanonicalHashDigestPins holds the digests of fixed configurations
// constant: the frontier CSV prints them and the search memo keys on
// them, so an encoding change must not move them.
func TestCanonicalHashDigestPins(t *testing.T) {
	want := []uint64{
		0x843e3b0ec7342356, // ResNet-50
		0x5723d7487ebd71b1, // DLRM-24B
		0xc0c10c6818d9a64d, // BERT-Large
		0x63e00159bf72e501, // GPT-2-XL
		0xaef477688d1e24c5, // GPT-6.7B
		0x9b18c1e384a46bc6, // LLaMA-7B
		0x263989742aa417e8, // GPT-13B
		0x7f445a6df9de94b9, // GPT-30B
		0x0a76583d301d7439, // GPT-66B
		0x5d9c38c0390858e9, // LLaMA-70B
		0xe84084c7d7db85c3, // GPT-175B
		0xd5776d9eac914190, // 16 channels
		0x9186638f7160c5a6, // LAMB
		0x7c152cdc39da6e9d, // linear layout
		0x243020d1864ce8a8, // AdamA, GradAccum 4
		0x26398a742aa4199b, // layer-wise overlap
		0x5ab686b0528a9928, // interleave depth 64
		0xa1392398bfb6d624, // Q8 state, PCIe 4 x8
		0xf096aa1ec8cb72f0, // 8 KiB pages, 128-unit window
	}
	cfgs := hashPinConfigs()
	for i, c := range cfgs {
		got := c.CanonicalHash()
		if i < len(want) && got != want[i] {
			t.Errorf("config %d (%s): digest %#016x, want %#016x", i, c.Model.Name, got, want[i])
		}
	}
	if len(want) != len(cfgs) {
		t.Errorf("%d pinned digests for %d configs", len(want), len(cfgs))
	}
}
