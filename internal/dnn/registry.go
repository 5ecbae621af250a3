package dnn

import (
	"fmt"
	"sync"
)

// Names lists the nine benchmark networks from the paper's Table I, in the
// paper's presentation order.
var Names = []string{
	"ResNet-50", "GoogLeNet", "YOLOv3", "SSD-R", "GNMT",
	"EfficientNet-B0", "MobileNet-v1", "SSD-M", "Tiny YOLO",
}

var constructors = map[string]func() *Network{
	"ResNet-50":       ResNet50,
	"GoogLeNet":       GoogLeNet,
	"YOLOv3":          YOLOv3,
	"SSD-R":           SSDResNet34,
	"GNMT":            GNMT,
	"EfficientNet-B0": EfficientNetB0,
	"MobileNet-v1":    MobileNetV1,
	"SSD-M":           SSDMobileNet,
	"Tiny YOLO":       TinyYOLO,
}

var (
	cacheMu sync.Mutex
	cache   = map[string]*Network{}
)

// ByName returns the named benchmark network. Networks are immutable and
// cached; callers must not mutate the returned value.
func ByName(name string) (*Network, error) {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if n, ok := cache[name]; ok {
		return n, nil
	}
	ctor, ok := constructors[name]
	if !ok {
		return nil, fmt.Errorf("dnn: unknown network %q (known: %v)", name, Names)
	}
	n := ctor()
	cache[name] = n
	return n, nil
}

// MustByName is ByName for statically known names.
func MustByName(name string) *Network {
	n, err := ByName(name)
	if err != nil {
		panic(err)
	}
	return n
}

// All returns every benchmark network in Table I order.
func All() []*Network {
	nets := make([]*Network, 0, len(Names))
	for _, name := range Names {
		nets = append(nets, MustByName(name))
	}
	return nets
}

// HasDepthwise reports whether the network contains depthwise
// convolutions — the layer class that monolithic systolic arrays
// underutilize and that separates Workload-A from Workload-B in the paper.
func (n *Network) HasDepthwise() bool {
	for i := range n.Layers {
		if n.Layers[i].Kind == DWConv {
			return true
		}
	}
	return false
}
