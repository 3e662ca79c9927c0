package model

import (
	"fmt"
	"strconv"
	"strings"
)

// ByName builds a model of the sized families by name: gpt3, t5,
// wresnet (also spelled wideresnet), llama, each with a size label from
// its *Sizes list, and deep-<layers> (for example deep-1024), which
// ignores size. It is the one name-to-builder table the CLI, the
// experiments and the planning daemon share.
func ByName(family, size string) (*Graph, error) {
	switch family {
	case "gpt3":
		return GPT3(size)
	case "t5":
		return T5(size)
	case "wresnet", "wideresnet":
		return WideResNet(size)
	case "llama":
		return Llama(size)
	}
	if rest, ok := strings.CutPrefix(family, "deep-"); ok {
		layers, err := strconv.Atoi(rest)
		if err != nil {
			return nil, fmt.Errorf("model: bad deep model spec %q (want deep-<layers>)", family)
		}
		return DeepTransformer(layers)
	}
	return nil, fmt.Errorf("model: unknown family %q (known: gpt3, t5, wresnet, llama, deep-<layers>)", family)
}
