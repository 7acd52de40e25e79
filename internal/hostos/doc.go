// Package hostos models the volunteer machine's operating system: a
// priority-preemptive thread scheduler in the style of the Windows XP
// workstation kernel the paper's testbed dual-boots, multiplexing
// processes and threads over the hw machine's cores.
//
// Threads execute cost.Program step streams. Compute steps progress at
// the fluid rates internal/hw derives from bus contention; disk and
// sleep steps block the thread until the disk or the timer calls
// Unblock, and a halt step parks it until whoever owns the wake (a VM's
// interrupt path) calls Unblock. Scheduling is strict priority with
// round-robin quanta inside a class, plus one deliberate refinement: a
// thread's Victim lends it its core, parking on that core so it resumes
// there without re-entering the ready queues — how VMM service work
// runs in its VM's scheduling context. A parked thread never reclaims
// its core past strictly higher-priority ready work, which matters on
// the fleet's single-core volunteer machines.
//
// Everything is deterministic: the scheduler mutates state only inside
// simulator events, and ties are broken by event insertion order.
package hostos
