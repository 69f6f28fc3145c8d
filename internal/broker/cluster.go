package broker

import (
	"fmt"
	"sort"
	"sync"

	"xingtian/internal/message"
	"xingtian/internal/netsim"
	"xingtian/internal/serialize"
)

// Cluster wires brokers on several simulated machines into one deployment:
// it owns the global name→machine registry (the paper's "global fabrics")
// and forwards cross-machine traffic over a simulated network.
type Cluster struct {
	net *netsim.Network

	mu        sync.Mutex
	brokers   map[int]*Broker
	locations map[string]int
}

var (
	_ Remote  = (*Cluster)(nil)
	_ Locator = (*Cluster)(nil)
)

// NewCluster returns an empty cluster over the given simulated network
// (nil uses the paper's default 1 GbE parameters).
func NewCluster(net *netsim.Network) *Cluster {
	if net == nil {
		net = netsim.New(netsim.DefaultConfig())
	}
	return &Cluster{
		net:       net,
		brokers:   make(map[int]*Broker),
		locations: make(map[string]int),
	}
}

// AddBroker creates the broker for a machine. Compressor semantics follow
// broker.Config.
func (c *Cluster) AddBroker(machineID int, comp serialize.Compressor) (*Broker, error) {
	return c.AddBrokerCfg(machineID, Config{Compressor: comp})
}

// AddBrokerCfg creates the broker for a machine from a full Config (byte
// budget, shed depth, compressor). The cluster supplies MachineID, Remote,
// and Locator itself, overwriting whatever the caller set there.
func (c *Cluster) AddBrokerCfg(machineID int, cfg Config) (*Broker, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.brokers[machineID]; exists {
		return nil, fmt.Errorf("broker: machine %d already has a broker", machineID)
	}
	cfg.MachineID = machineID
	cfg.Remote = c
	cfg.Locator = c
	b := New(cfg)
	c.brokers[machineID] = b
	return b, nil
}

// Register attaches a named client to the machine's broker and records its
// location in the global registry.
func (c *Cluster) Register(machineID int, name string) (*Port, error) {
	c.mu.Lock()
	b, ok := c.brokers[machineID]
	if !ok {
		c.mu.Unlock()
		return nil, fmt.Errorf("broker: no broker on machine %d", machineID)
	}
	if prev, dup := c.locations[name]; dup {
		c.mu.Unlock()
		return nil, fmt.Errorf("broker: client %q already registered on machine %d", name, prev)
	}
	c.locations[name] = machineID
	c.mu.Unlock()
	port, err := b.Register(name)
	if err != nil {
		c.mu.Lock()
		delete(c.locations, name)
		c.mu.Unlock()
		return nil, err
	}
	return port, nil
}

// Unregister detaches a named client from its machine's broker and removes
// it from the global registry, so the name can be registered again (explorer
// supervision re-creates a crashed explorer under its original name). It is
// a no-op for unknown names.
func (c *Cluster) Unregister(machineID int, name string) {
	c.mu.Lock()
	b := c.brokers[machineID]
	if m, ok := c.locations[name]; ok && m == machineID {
		delete(c.locations, name)
	}
	c.mu.Unlock()
	if b != nil {
		b.Unregister(name)
	}
}

// Locate implements Locator.
func (c *Cluster) Locate(name string) (int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.locations[name]
	return m, ok
}

// Forward implements Remote: it charges the simulated wire time for the
// framed body plus header overhead, then injects the message into the
// destination broker. framed is the source broker's store body, so the
// simulated wire ends in a private copy for InjectRemote to adopt — the
// copy a socket read makes on a real fabric.
func (c *Cluster) Forward(srcMachine, dstMachine int, h *message.Header, framed []byte) error {
	c.mu.Lock()
	dst, ok := c.brokers[dstMachine]
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("broker: forward to unknown machine %d", dstMachine)
	}
	const headerOverhead = 64
	c.net.Transfer(srcMachine, dstMachine, len(framed)+headerOverhead)
	return dst.InjectRemote(h, append([]byte(nil), framed...))
}

// Network exposes the simulated network for byte accounting in experiments.
func (c *Cluster) Network() *netsim.Network { return c.net }

// Broker returns the broker serving a machine, or nil.
func (c *Cluster) Broker(machineID int) *Broker {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.brokers[machineID]
}

// Health snapshots channel-health metrics for every broker in the cluster,
// ordered by machine ID.
func (c *Cluster) Health() ClusterHealth {
	c.mu.Lock()
	ids := make([]int, 0, len(c.brokers))
	for id := range c.brokers {
		ids = append(ids, id)
	}
	byID := make(map[int]*Broker, len(c.brokers))
	for id, b := range c.brokers {
		byID[id] = b
	}
	c.mu.Unlock()
	sort.Ints(ids)
	var h ClusterHealth
	for _, id := range ids {
		h.Brokers = append(h.Brokers, byID[id].Metrics())
	}
	return h
}

// Stop shuts down every broker in the cluster.
func (c *Cluster) Stop() {
	c.mu.Lock()
	brokers := make([]*Broker, 0, len(c.brokers))
	for _, b := range c.brokers {
		brokers = append(brokers, b)
	}
	c.mu.Unlock()
	for _, b := range brokers {
		b.Stop()
	}
}
