package model

import (
	"reflect"
	"testing"
)

func TestByNameCoversEveryFamilyAndSize(t *testing.T) {
	type builder func(string) (*Graph, error)
	deep := func(layers int) builder {
		return func(string) (*Graph, error) { return DeepTransformer(layers) }
	}
	families := []struct {
		name  string
		sizes []string
		build builder
	}{
		{"gpt3", GPT3Sizes, GPT3},
		{"t5", T5Sizes, T5},
		{"wresnet", WideResNetSizes, WideResNet},
		{"wideresnet", WideResNetSizes, WideResNet},
		{"llama", LlamaSizes, Llama},
		{"deep-8", []string{"", "ignored"}, deep(8)},
		{"deep-1024", []string{""}, deep(1024)},
	}
	for _, f := range families {
		for _, size := range f.sizes {
			got, err := ByName(f.name, size)
			if err != nil {
				t.Fatalf("ByName(%q, %q): %v", f.name, size, err)
			}
			want, err := f.build(size)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("ByName(%q, %q) built %s, want %s", f.name, size, got.Name, want.Name)
			}
		}
	}
}

func TestByNameRejects(t *testing.T) {
	for _, c := range [][2]string{
		{"resnext", "1B"},
		{"", ""},
		{"gpt3", "7B"},
		{"wideresnet", ""},
		{"deep-", ""},
		{"deep-x", ""},
		{"deep-0", ""},
		{"deep--4", ""},
	} {
		if g, err := ByName(c[0], c[1]); err == nil {
			t.Errorf("ByName(%q, %q) = %s, want an error", c[0], c[1], g.Name)
		}
	}
}
