package serve

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/kepler"
)

// resolver validates request names against the served program, device and
// configuration sets. Every role resolves through it before handing work to
// its executor, so a request means the same combination no matter which
// role receives it.
type resolver struct {
	programList []core.Program
	programs    map[string]core.Program
	configList  []kepler.Clocks
	configs     map[string]kepler.Clocks
}

// newResolver indexes the served sets. Configs defaults to kepler.Configs.
func newResolver(programs []core.Program, configs []kepler.Clocks) (*resolver, error) {
	if len(configs) == 0 {
		configs = kepler.Configs
	}
	res := &resolver{
		programList: programs,
		programs:    make(map[string]core.Program, len(programs)),
		configList:  configs,
		configs:     make(map[string]kepler.Clocks, len(configs)),
	}
	for _, p := range programs {
		if _, dup := res.programs[p.Name()]; dup {
			return nil, fmt.Errorf("serve: duplicate program name %q", p.Name())
		}
		res.programs[p.Name()] = p
	}
	for _, c := range configs {
		res.configs[c.Name] = c
	}
	return res, nil
}

// resolve validates and resolves one combination's names. An empty device
// means the K20c and resolves configs against the served set; any other
// device resolves configs against that device's own DVFS ladder.
func (res *resolver) resolve(program, input, config, device string) (core.Program, kepler.Clocks, string, error) {
	p, ok := res.programs[program]
	if !ok {
		return nil, kepler.Clocks{}, "", fmt.Errorf("unknown program %q", program)
	}
	dev, err := res.resolveDevice(device)
	if err != nil {
		return nil, kepler.Clocks{}, "", err
	}
	if config == "" {
		config = "default"
	}
	var clk kepler.Clocks
	if dev == kepler.K20cDevice() {
		clk, ok = res.configs[config]
		if !ok {
			return nil, kepler.Clocks{}, "", fmt.Errorf("unknown config %q", config)
		}
	} else {
		clk, err = dev.ConfigByName(config)
		if err != nil {
			return nil, kepler.Clocks{}, "", fmt.Errorf("unknown config %q on device %s", config, dev.Name)
		}
	}
	if input == "" {
		input = p.DefaultInput()
	} else {
		found := false
		for _, in := range p.Inputs() {
			if in == input {
				found = true
				break
			}
		}
		if !found {
			return nil, kepler.Clocks{}, "", fmt.Errorf("%s: unknown input %q (have %v)", program, input, p.Inputs())
		}
	}
	return p, clk, input, nil
}

// resolveDevice maps a request's device name to its profile; empty means
// the K20c. Unknown names surface as a 400 through the callers.
func (res *resolver) resolveDevice(device string) (*kepler.Device, error) {
	dev, err := kepler.DeviceByName(device)
	if err != nil {
		return nil, fmt.Errorf("unknown device %q", device)
	}
	return dev, nil
}

// sweepSet resolves a sweep request's program, device and configuration
// selections (empty selections mean the full served sets; on a non-K20c
// device an empty Configs means that device's canonical configurations).
func (res *resolver) sweepSet(req sweepRequest) ([]core.Program, *kepler.Device, []kepler.Clocks, error) {
	programs := make([]core.Program, 0, len(req.Programs))
	if len(req.Programs) == 0 {
		programs = append(programs, res.programList...)
	} else {
		for _, name := range req.Programs {
			p, ok := res.programs[name]
			if !ok {
				return nil, nil, nil, fmt.Errorf("unknown program %q", name)
			}
			programs = append(programs, p)
		}
	}
	dev, err := res.resolveDevice(req.Device)
	if err != nil {
		return nil, nil, nil, err
	}
	configs := make([]kepler.Clocks, 0, len(req.Configs))
	switch {
	case len(req.Configs) == 0 && dev == kepler.K20cDevice():
		configs = append(configs, res.configList...)
	case len(req.Configs) == 0:
		configs = append(configs, dev.Configurations()...)
	case dev == kepler.K20cDevice():
		for _, name := range req.Configs {
			c, ok := res.configs[name]
			if !ok {
				return nil, nil, nil, fmt.Errorf("unknown config %q", name)
			}
			configs = append(configs, c)
		}
	default:
		for _, name := range req.Configs {
			c, err := dev.ConfigByName(name)
			if err != nil {
				return nil, nil, nil, fmt.Errorf("unknown config %q on device %s", name, dev.Name)
			}
			configs = append(configs, c)
		}
	}
	return programs, dev, configs, nil
}
