external set : string -> unit = "ivl_obs_set_thread_name" [@@noalloc]
